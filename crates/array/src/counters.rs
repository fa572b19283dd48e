//! Per-device and array-wide traffic accounting.

use crate::fault::ScrubStep;
use crate::sink::ChunkFlush;
use serde::{Deserialize, Serialize};

/// Byte counters for one member device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceCounters {
    /// Bytes of live payload (user writes and GC rewrites).
    pub data_bytes: u64,
    /// Bytes of zero padding absorbed.
    pub pad_bytes: u64,
    /// Bytes of parity chunks written.
    pub parity_bytes: u64,
    /// Number of chunk writes (any kind) issued to this device.
    pub chunk_writes: u64,
}

impl DeviceCounters {
    /// Total bytes physically written to the device.
    pub fn total_bytes(&self) -> u64 {
        self.data_bytes + self.pad_bytes + self.parity_bytes
    }
}

/// Aggregated view across all devices.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ArrayStats {
    /// Per-device counters, indexed by device id.
    pub devices: Vec<DeviceCounters>,
    /// Count of chunks that contained any padding.
    pub padded_chunks: u64,
    /// Count of completely full (pad-free) chunks.
    pub full_chunks: u64,
    /// Number of complete stripes closed (parity generated).
    pub stripes_completed: u64,
    /// Reads served by parity reconstruction while a device was failed
    /// (or a latent sector error hid the direct copy).
    pub degraded_reads: u64,
    /// Bytes read from surviving devices to serve degraded reads.
    pub reconstructed_bytes: u64,
    /// Bytes read from survivors by the rebuild sweep.
    pub rebuild_read_bytes: u64,
    /// Bytes written to the replacement device by the rebuild sweep.
    pub rebuild_write_bytes: u64,
    /// Chunks restored onto the replacement device.
    pub rebuilt_chunks: u64,
    /// Chunks whose checksum the scrub driver verified.
    #[serde(default)]
    pub chunks_scrubbed: u64,
    /// Bytes read off devices by the scrub driver.
    #[serde(default)]
    pub scrub_read_bytes: u64,
    /// Checksum mismatches detected (on read or by scrub).
    #[serde(default)]
    pub corruptions_detected: u64,
    /// Mismatched chunks repaired from survivors and rewritten in place.
    #[serde(default)]
    pub corruptions_healed: u64,
    /// Mismatched chunks that could not be repaired.
    #[serde(default)]
    pub corruptions_unrecoverable: u64,
    /// Bytes written back by heal rewrites (mismatch + latent repairs).
    #[serde(default)]
    pub heal_write_bytes: u64,
    /// Sum over detections of ops elapsed between corruption injection
    /// and detection. Divide by `corruptions_detected` for the mean.
    #[serde(default)]
    pub detection_latency_ops: u64,
    /// Latent sector errors repaired by the scrub driver (rewritten
    /// before they could pair with a device failure).
    #[serde(default)]
    pub scrub_latent_repaired: u64,
    /// Bytes read off a draining device by the proactive evacuation sweep.
    #[serde(default)]
    pub drain_read_bytes: u64,
    /// Bytes written to the replacement by the drain sweep.
    #[serde(default)]
    pub drain_write_bytes: u64,
    /// Chunks copied off a draining device.
    #[serde(default)]
    pub drained_chunks: u64,
    /// Payload bytes memcpy'd between RAM buffers inside the array layer
    /// (parity-accumulator seeds, borrowed-slice ownership transfers) —
    /// *not* modeled device I/O. The zero-copy work (PR 7) exists to drive
    /// this toward the single unavoidable copy per stripe; the repo
    /// benchmark tracks it per host byte
    /// (`array.sink.copy_bytes_per_host_byte`).
    #[serde(default)]
    pub copy_bytes: u64,
}

impl ArrayStats {
    /// Create stats for an array of `n` devices.
    pub fn new(n: usize) -> Self {
        Self { devices: vec![DeviceCounters::default(); n], ..Default::default() }
    }

    /// Charge one flushed data chunk to `device`.
    pub fn charge_data_chunk(&mut self, device: usize, flush: &ChunkFlush) {
        let dev = &mut self.devices[device];
        dev.data_bytes += flush.payload_bytes();
        dev.pad_bytes += flush.pad_bytes;
        dev.chunk_writes += 1;
        if flush.pad_bytes > 0 {
            self.padded_chunks += 1;
        } else {
            self.full_chunks += 1;
        }
    }

    /// Charge the parity of a stripe that just closed: one chunk to each
    /// of its parity devices.
    pub fn charge_stripe_parity(
        &mut self,
        parity_devices: impl Iterator<Item = usize>,
        chunk_bytes: u64,
    ) {
        for device in parity_devices {
            let dev = &mut self.devices[device];
            dev.parity_bytes += chunk_bytes;
            dev.chunk_writes += 1;
        }
        self.stripes_completed += 1;
    }

    /// Total payload bytes across devices.
    pub fn data_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.data_bytes).sum()
    }

    /// Total padding bytes across devices.
    pub fn pad_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.pad_bytes).sum()
    }

    /// Total parity bytes across devices.
    pub fn parity_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.parity_bytes).sum()
    }

    /// Total bytes physically written (data + pad + parity).
    pub fn total_bytes(&self) -> u64 {
        self.devices.iter().map(|d| d.total_bytes()).sum()
    }

    /// Fraction of non-parity bytes that are padding.
    pub fn pad_fraction(&self) -> f64 {
        let data = self.data_bytes() + self.pad_bytes();
        if data == 0 {
            return 0.0;
        }
        self.pad_bytes() as f64 / data as f64
    }

    /// Total bytes moved by the rebuild sweep (reads + writes).
    pub fn rebuild_bytes(&self) -> u64 {
        self.rebuild_read_bytes + self.rebuild_write_bytes
    }

    /// Fold one scrub step's deltas into the cumulative totals.
    pub fn fold_scrub_step(&mut self, step: &ScrubStep) {
        self.chunks_scrubbed += step.chunks_scrubbed;
        self.scrub_read_bytes += step.read_bytes;
        self.corruptions_detected += step.detected;
        self.corruptions_healed += step.healed;
        self.corruptions_unrecoverable += step.unrecoverable;
        self.heal_write_bytes += step.heal_write_bytes;
        self.detection_latency_ops += step.detection_latency_ops;
        self.scrub_latent_repaired += step.latent_repaired;
    }

    /// Mean ops between corruption injection and detection (0 when
    /// nothing was detected).
    pub fn mean_detection_latency_ops(&self) -> f64 {
        if self.corruptions_detected == 0 {
            return 0.0;
        }
        self.detection_latency_ops as f64 / self.corruptions_detected as f64
    }

    /// Fold another array's totals into this one, for array-wide rollups
    /// across independent shards: `other`'s devices are *appended* (each
    /// shard owns a disjoint physical array, so device ids don't overlap)
    /// and every scalar counter sums. The exhaustive destructure makes a
    /// newly added counter a compile error here rather than a silently
    /// missing term in merged reports.
    pub fn merge_from(&mut self, other: &ArrayStats) {
        let ArrayStats {
            devices,
            padded_chunks,
            full_chunks,
            stripes_completed,
            degraded_reads,
            reconstructed_bytes,
            rebuild_read_bytes,
            rebuild_write_bytes,
            rebuilt_chunks,
            chunks_scrubbed,
            scrub_read_bytes,
            corruptions_detected,
            corruptions_healed,
            corruptions_unrecoverable,
            heal_write_bytes,
            detection_latency_ops,
            scrub_latent_repaired,
            drain_read_bytes,
            drain_write_bytes,
            drained_chunks,
            copy_bytes,
        } = other;
        self.devices.extend_from_slice(devices);
        self.padded_chunks += padded_chunks;
        self.full_chunks += full_chunks;
        self.stripes_completed += stripes_completed;
        self.degraded_reads += degraded_reads;
        self.reconstructed_bytes += reconstructed_bytes;
        self.rebuild_read_bytes += rebuild_read_bytes;
        self.rebuild_write_bytes += rebuild_write_bytes;
        self.rebuilt_chunks += rebuilt_chunks;
        self.chunks_scrubbed += chunks_scrubbed;
        self.scrub_read_bytes += scrub_read_bytes;
        self.corruptions_detected += corruptions_detected;
        self.corruptions_healed += corruptions_healed;
        self.corruptions_unrecoverable += corruptions_unrecoverable;
        self.heal_write_bytes += heal_write_bytes;
        self.detection_latency_ops += detection_latency_ops;
        self.scrub_latent_repaired += scrub_latent_repaired;
        self.drain_read_bytes += drain_read_bytes;
        self.drain_write_bytes += drain_write_bytes;
        self.drained_chunks += drained_chunks;
        self.copy_bytes += copy_bytes;
    }

    /// Coefficient of variation of per-device total bytes (0 = perfectly
    /// balanced). Useful to confirm the rotation spreads load.
    pub fn device_imbalance(&self) -> f64 {
        let totals: Vec<f64> = self.devices.iter().map(|d| d.total_bytes() as f64).collect();
        let n = totals.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean = totals.iter().sum::<f64>() / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = totals.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>() / n;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut s = ArrayStats::new(2);
        s.devices[0].data_bytes = 100;
        s.devices[0].pad_bytes = 10;
        s.devices[1].parity_bytes = 50;
        assert_eq!(s.data_bytes(), 100);
        assert_eq!(s.pad_bytes(), 10);
        assert_eq!(s.parity_bytes(), 50);
        assert_eq!(s.total_bytes(), 160);
        assert!((s.pad_fraction() - 10.0 / 110.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_zero_when_equal() {
        let mut s = ArrayStats::new(3);
        for d in &mut s.devices {
            d.data_bytes = 77;
        }
        assert!(s.device_imbalance() < 1e-12);
    }

    #[test]
    fn imbalance_positive_when_skewed() {
        let mut s = ArrayStats::new(2);
        s.devices[0].data_bytes = 100;
        s.devices[1].data_bytes = 0;
        assert!(s.device_imbalance() > 0.9);
    }

    #[test]
    fn empty_stats_no_nan() {
        let s = ArrayStats::new(0);
        assert_eq!(s.pad_fraction(), 0.0);
        assert_eq!(s.device_imbalance(), 0.0);
        assert_eq!(s.mean_detection_latency_ops(), 0.0);
    }

    #[test]
    fn merge_appends_devices_and_sums_counters() {
        let mut a = ArrayStats::new(2);
        a.devices[0].data_bytes = 10;
        a.padded_chunks = 1;
        a.stripes_completed = 3;
        let mut b = ArrayStats::new(3);
        b.devices[2].parity_bytes = 7;
        b.padded_chunks = 2;
        b.copy_bytes = 99;
        a.merge_from(&b);
        assert_eq!(a.devices.len(), 5, "shards own disjoint arrays");
        assert_eq!(a.devices[4].parity_bytes, 7);
        assert_eq!(a.padded_chunks, 3);
        assert_eq!(a.stripes_completed, 3);
        assert_eq!(a.copy_bytes, 99);
        assert_eq!(a.total_bytes(), 17);
    }

    #[test]
    fn detection_latency_mean() {
        let mut s = ArrayStats::new(1);
        s.corruptions_detected = 4;
        s.detection_latency_ops = 100;
        assert!((s.mean_detection_latency_ops() - 25.0).abs() < 1e-12);
    }
}

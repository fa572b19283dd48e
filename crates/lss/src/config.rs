//! Engine configuration.

use adapt_array::ArrayConfig;
use serde::{Deserialize, Serialize};

/// Configuration of the log-structured engine.
///
/// Defaults follow the paper's setup (§4.1): 4 KiB blocks, 64 KiB chunks,
/// 100 µs coalescing SLA, Greedy or Cost-Benefit GC.
///
/// Construct via `LssConfig::default()` (or a struct literal over it) and
/// refine with the builder-style `with_*` setters; the raw fields are
/// `#[doc(hidden)]` and kept public only for serde and struct-literal
/// construction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LssConfig {
    /// Block size in bytes (the user request granularity).
    #[doc(hidden)]
    pub block_bytes: u64,
    /// Blocks per array chunk (chunk = minimum array write unit).
    #[doc(hidden)]
    pub chunk_blocks: u32,
    /// Chunks per segment.
    #[doc(hidden)]
    pub segment_chunks: u32,
    /// Logical capacity exposed to the user, in blocks.
    #[doc(hidden)]
    pub user_blocks: u64,
    /// Over-provisioning fraction: physical capacity is
    /// `user_blocks * (1 + op_ratio)` rounded up to whole segments.
    #[doc(hidden)]
    pub op_ratio: f64,
    /// Chunk coalescing SLA window in microseconds (paper: 100 µs, the
    /// Alibaba Pangu latency SLA).
    #[doc(hidden)]
    pub sla_us: u64,
    /// GC triggers when the free-segment pool drops to this many segments.
    #[doc(hidden)]
    pub gc_low_water: u32,
    /// GC keeps collecting until the pool recovers to this many segments.
    #[doc(hidden)]
    pub gc_high_water: u32,
    /// Background scrub pacing: stripes verified per host operation
    /// (0 disables scrubbing, the default). Paced exactly like the rebuild
    /// driver — a bounded amount of background work piggybacks on every
    /// host op, so scrub bandwidth scales with (and never outruns)
    /// foreground traffic. The scrub always yields to an in-flight
    /// rebuild.
    #[serde(default)]
    #[doc(hidden)]
    pub scrub_stripes_per_op: u64,
    /// Member devices in the backing array (`n`). Zero means "default"
    /// (4), so configs serialized before the geometry was tunable keep
    /// their historical meaning.
    #[serde(default)]
    #[doc(hidden)]
    pub array_devices: usize,
    /// Parity chunks per stripe (`m`): 1 = RAID-5, 2 = RAID-6, higher
    /// values use general Reed-Solomon rows. Zero means "default" (1).
    #[serde(default)]
    #[doc(hidden)]
    pub array_parity: usize,
}

impl Default for LssConfig {
    fn default() -> Self {
        Self {
            block_bytes: 4096,
            chunk_blocks: 16,  // 64 KiB chunks
            segment_chunks: 8, // 512 KiB segments
            user_blocks: 16 * 1024,
            op_ratio: 0.28,
            sla_us: 100,
            gc_low_water: 12,
            gc_high_water: 18,
            scrub_stripes_per_op: 0,
            array_devices: 0,
            array_parity: 0,
        }
    }
}

impl LssConfig {
    /// Validate invariants; panics on an unusable configuration.
    pub fn validate(&self, num_groups: usize) {
        assert!(self.block_bytes > 0);
        assert!(self.chunk_blocks > 0);
        assert!(self.segment_chunks > 0);
        assert!(self.user_blocks >= self.segment_blocks() as u64 * 4, "capacity too small");
        assert!(self.op_ratio > 0.0, "log-structured stores need over-provisioning");
        assert!(self.gc_high_water > self.gc_low_water);
        // Every group keeps one open segment; GC must still make progress
        // with all opens allocated plus room for migration destinations.
        assert!(
            (self.gc_low_water as usize) >= num_groups + 2,
            "gc_low_water {} must exceed group count {} + 2 so GC can always allocate",
            self.gc_low_water,
            num_groups
        );
        // Spare segments must cover the GC high watermark plus one open
        // segment per group (all of which can be allocated mid-GC) with
        // margin, or the free pool can exhaust under pressure.
        let spare = self.total_segments() as i64 - self.user_segments() as i64;
        let needed = self.gc_high_water as i64 + num_groups as i64 + 2;
        assert!(
            spare > needed,
            "over-provisioned segments ({spare}) must exceed gc_high_water + groups + 2 ({needed})"
        );
    }

    /// Blocks per segment.
    pub fn segment_blocks(&self) -> u32 {
        self.chunk_blocks * self.segment_chunks
    }

    /// Segment size in bytes.
    pub fn segment_bytes(&self) -> u64 {
        self.segment_blocks() as u64 * self.block_bytes
    }

    /// Chunk size in bytes.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_blocks as u64 * self.block_bytes
    }

    /// Segments needed to hold exactly the user-visible capacity.
    pub fn user_segments(&self) -> u32 {
        self.user_blocks.div_ceil(self.segment_blocks() as u64) as u32
    }

    /// Total physical segments including over-provisioning.
    pub fn total_segments(&self) -> u32 {
        let phys_blocks = (self.user_blocks as f64 * (1.0 + self.op_ratio)).ceil() as u64;
        phys_blocks.div_ceil(self.segment_blocks() as u64) as u32
    }

    /// Array geometry consistent with this engine config: `array_devices`
    /// members with `array_parity` parity chunks per stripe (defaulting to
    /// the historical 4-device RAID-5 when either is zero/unset).
    pub fn array_config(&self) -> ArrayConfig {
        let n = if self.array_devices == 0 { 4 } else { self.array_devices };
        let m = if self.array_parity == 0 { 1 } else { self.array_parity };
        ArrayConfig::with_parity(n, m, self.chunk_bytes())
    }

    /// This config with an explicit `n` devices / `m` parity geometry.
    pub fn with_geometry(mut self, devices: usize, parity: usize) -> Self {
        self.array_devices = devices;
        self.array_parity = parity;
        self
    }

    /// This config with the given user-visible capacity in blocks.
    pub fn with_user_blocks(mut self, user_blocks: u64) -> Self {
        self.user_blocks = user_blocks;
        self
    }

    /// This config with the given over-provisioning fraction.
    pub fn with_op_ratio(mut self, op_ratio: f64) -> Self {
        self.op_ratio = op_ratio;
        self
    }

    /// This config with the given GC trigger/stop watermarks (segments).
    pub fn with_gc_watermarks(mut self, low: u32, high: u32) -> Self {
        self.gc_low_water = low;
        self.gc_high_water = high;
        self
    }

    /// This config with the given scrub pacing (stripes verified per host
    /// op, 0 = scrubbing off).
    pub fn with_scrub_stripes_per_op(mut self, stripes: u64) -> Self {
        self.scrub_stripes_per_op = stripes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry() {
        let c = LssConfig::default();
        assert_eq!(c.segment_blocks(), 128);
        assert_eq!(c.segment_bytes(), 512 * 1024);
        assert_eq!(c.chunk_bytes(), 64 * 1024);
        assert_eq!(c.user_segments(), 128);
        assert!(c.total_segments() > c.user_segments());
        c.validate(6);
    }

    #[test]
    fn overprovision_accounted() {
        let c = LssConfig { user_blocks: 12800, op_ratio: 0.25, ..Default::default() };
        assert_eq!(c.user_segments(), 100);
        assert_eq!(c.total_segments(), 125);
    }

    #[test]
    #[should_panic]
    fn rejects_low_water_below_groups() {
        let c = LssConfig { gc_low_water: 5, ..Default::default() };
        c.validate(6);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_op() {
        let c = LssConfig { op_ratio: 0.0, ..Default::default() };
        c.validate(2);
    }

    #[test]
    fn array_config_chunk_matches() {
        let c = LssConfig::default();
        assert_eq!(c.array_config().chunk_bytes, c.chunk_bytes());
        assert_eq!(c.array_config().num_devices, 4, "unset geometry = historical 4-disk RAID-5");
        assert_eq!(c.array_config().parity_devices, 1);
    }

    #[test]
    fn geometry_knobs_flow_through() {
        let c = LssConfig::default().with_geometry(8, 2);
        let a = c.array_config();
        assert_eq!(a.num_devices, 8);
        assert_eq!(a.parity_devices, 2);
        assert_eq!(a.data_columns(), 6);
        assert_eq!(a.geometry().label(), "6+2");
    }
}

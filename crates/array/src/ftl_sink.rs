//! Array sink backed by per-device FTL models — the measurement rig for
//! §3.1's multi-stream claim.
//!
//! Each engine chunk flush carries its *physical* address (segment ×
//! chunk-in-segment), so the member SSDs observe real overwrites when
//! segments are reused after GC. Chunks tagged with different groups are
//! issued on different device streams (group `g` → stream `g + 1`; stream
//! 0 is the device's internal GC stream), or all on one stream when
//! multi-stream is disabled — the difference in the devices' internal WA
//! is exactly the benefit the paper attributes to one-to-one group/stream
//! mapping.
//!
//! Parity modeling note: the stripe's `m` parity chunks are rewritten
//! when the stripe's last data column is written. Stripes that straddle a
//! segment boundary are approximated the same way (log-structured arrays
//! align segments to stripes in deployment; our default geometry does
//! not, and the approximation only affects parity-page churn).

use crate::config::ArrayConfig;
use crate::counters::ArrayStats;
use crate::ftl::{FtlConfig, FtlDevice, FtlStats};
use crate::layout::{ChunkLocation, StripeLayout};
use crate::sink::{ArraySink, ChunkFlush};

/// `k + m` array whose members are FTL-modeled SSDs.
#[derive(Debug, Clone)]
pub struct FtlArray {
    layout: StripeLayout,
    stats: ArrayStats,
    devices: Vec<FtlDevice>,
    /// Pages per chunk.
    pages_per_chunk: u32,
    /// Chunks per segment (to decode physical addresses).
    chunks_per_segment: u32,
    /// Whether groups map to device streams (true) or all writes share one
    /// stream (false).
    multi_stream: bool,
}

impl FtlArray {
    /// Create an FTL-backed array.
    ///
    /// * `total_segments` — the engine's physical segment count (bounds the
    ///   address space each device must map).
    /// * `chunks_per_segment` — the engine's segment geometry.
    /// * `streams` — device stream count (≥ 2 to separate device-GC from
    ///   host writes; 1 disables separation entirely).
    pub fn new(
        cfg: ArrayConfig,
        total_segments: u32,
        chunks_per_segment: u32,
        ftl_page_bytes: u64,
        streams: usize,
        multi_stream: bool,
    ) -> Self {
        cfg.validate();
        assert_eq!(cfg.chunk_bytes % ftl_page_bytes, 0, "chunk must be whole pages");
        let pages_per_chunk = (cfg.chunk_bytes / ftl_page_bytes) as u32;
        let total_chunks = total_segments as u64 * chunks_per_segment as u64;
        // Each device holds one chunk (data or parity) per stripe.
        let stripes = total_chunks.div_ceil(cfg.data_columns() as u64) + 1;
        let logical_pages = stripes * pages_per_chunk as u64;
        // Scale NAND geometry to the (possibly tiny, simulation-sized)
        // device: enough erase blocks for GC dynamics, and enough
        // over-provisioning to cover the per-stream open blocks plus the
        // GC watermark.
        let pages_per_block = (logical_pages / 192).clamp(8, 64) as u32;
        let gc_low_water = 4;
        let min_spare_blocks = (gc_low_water + streams as u32 + 4) as u64;
        let min_op = min_spare_blocks as f64 * pages_per_block as f64 / logical_pages as f64;
        let ftl_cfg = FtlConfig {
            page_bytes: ftl_page_bytes,
            pages_per_block,
            logical_pages,
            op_ratio: (0.12f64).max(min_op * 1.1),
            streams,
            gc_low_water,
        };
        Self {
            layout: StripeLayout::new(cfg),
            stats: ArrayStats::new(cfg.num_devices),
            devices: (0..cfg.num_devices).map(|i| FtlDevice::with_id(ftl_cfg, i)).collect(),
            pages_per_chunk,
            chunks_per_segment,
            multi_stream,
        }
    }

    /// Per-device FTL statistics.
    pub fn ftl_stats(&self) -> Vec<FtlStats> {
        self.devices.iter().map(|d| *d.stats()).collect()
    }

    /// Aggregate in-device WA across members.
    pub fn in_device_wa(&self) -> f64 {
        let host: u64 = self.devices.iter().map(|d| d.stats().host_pages).sum();
        let migrated: u64 = self.devices.iter().map(|d| d.stats().migrated_pages).sum();
        if host == 0 {
            return 1.0;
        }
        1.0 + migrated as f64 / host as f64
    }

    fn stream_for(&self, group: u8) -> usize {
        if self.multi_stream {
            group as usize + 1 // stream 0 is the device-GC stream
        } else {
            1
        }
    }
}

impl ArraySink for FtlArray {
    fn write_chunk(&mut self, flush: ChunkFlush) -> ChunkLocation {
        // The members model in-place SSD addresses, not an append log: the
        // chunk's physical address is its place in the sequence.
        let addr = flush.physical_chunk_addr(self.chunks_per_segment);
        let (loc, closed) = self.stats.charge_append(&self.layout, addr, &flush);
        let stream = self.stream_for(flush.group);
        let lpn = loc.stripe * self.pages_per_chunk as u64;
        self.devices[loc.device].write_pages(lpn, self.pages_per_chunk, stream);
        // Parity rewrite when the stripe's last data column lands.
        if closed {
            for device in self.layout.parity_devices(loc.stripe) {
                self.devices[device].write_pages(lpn, self.pages_per_chunk, stream);
            }
        }
        loc
    }

    fn config(&self) -> &ArrayConfig {
        self.layout.config()
    }

    fn stats(&self) -> &ArrayStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array(multi_stream: bool) -> FtlArray {
        FtlArray::new(ArrayConfig::default(), 64, 8, 16 * 1024, 8, multi_stream)
    }

    fn flush(group: u8, seg: u32, idx: u32) -> ChunkFlush {
        ChunkFlush {
            user_bytes: 64 * 1024,
            gc_bytes: 0,
            shadow_bytes: 0,
            pad_bytes: 0,
            group,
            seg,
            chunk_in_seg: idx,
        }
    }

    #[test]
    fn physical_addresses_map_deterministically() {
        let mut a = array(true);
        let l1 = a.write_chunk(flush(0, 0, 0));
        let mut b = array(true);
        let l2 = b.write_chunk(flush(0, 0, 0));
        assert_eq!(l1, l2);
    }

    #[test]
    fn rewriting_a_segment_overwrites_device_pages() {
        let mut a = array(true);
        // Write segment 0 twice (simulating reuse after GC).
        for round in 0..2 {
            for idx in 0..8 {
                a.write_chunk(flush(0, 0, idx));
            }
            let _ = round;
        }
        // Host pages doubled but the devices' logical footprint did not.
        let host: u64 = a.ftl_stats().iter().map(|s| s.host_pages).sum();
        // 8 data chunks × 4 pages × 2 rounds, plus 2 completed stripes'
        // parity (4 pages each) per round; the straddling third stripe
        // never completes within one segment.
        assert_eq!(host, 2 * 8 * 4 + 2 * 2 * 4);
    }

    #[test]
    fn in_device_wa_starts_at_one() {
        let mut a = array(true);
        for seg in 0..4u32 {
            for idx in 0..8 {
                a.write_chunk(flush(0, seg, idx));
            }
        }
        assert!((a.in_device_wa() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn groups_land_on_distinct_streams() {
        let mut multi = array(true);
        let mut single = array(false);
        assert_eq!(multi.stream_for(3), 4);
        assert_eq!(single.stream_for(3), 1);
        // Both accept identical flush sequences.
        for seg in 0..8u32 {
            for idx in 0..8 {
                multi.write_chunk(flush((seg % 4) as u8, seg, idx));
                single.write_chunk(flush((seg % 4) as u8, seg, idx));
            }
        }
        assert_eq!(multi.stats().data_bytes(), single.stats().data_bytes());
    }

    #[test]
    fn double_parity_writes_data_off_parity_and_charges_m_chunks() {
        let cfg = ArrayConfig::with_parity(6, 2, 64 * 1024);
        let mut a = FtlArray::new(cfg, 64, 8, 16 * 1024, 8, true);
        let layout = StripeLayout::new(cfg);
        for seg in 0..4u32 {
            for idx in 0..8 {
                let loc = a.write_chunk(flush(0, seg, idx));
                let parity: Vec<usize> = layout.parity_devices(loc.stripe).collect();
                assert!(!parity.contains(&loc.device), "data chunk on parity device: {loc:?}");
                assert_eq!(loc, layout.locate(seg as u64 * 8 + idx as u64));
            }
        }
        // 32 chunks on 4 data columns: every stripe completes.
        let stats = a.stats();
        assert_eq!(stats.stripes_completed, 8);
        assert_eq!(stats.parity_bytes(), 2 * cfg.chunk_bytes * stats.stripes_completed);
        assert!(stats.devices.iter().all(|d| d.data_bytes > 0), "every device holds data");
        assert!(stats.devices.iter().all(|d| d.parity_bytes > 0), "every device holds parity");
        assert!(a.ftl_stats().iter().all(|d| d.host_pages > 0), "every device is written");
    }

    #[test]
    #[should_panic]
    fn rejects_non_page_aligned_chunk_size() {
        FtlArray::new(ArrayConfig::new(4, 65536), 16, 8, 10_000, 8, true);
    }
}

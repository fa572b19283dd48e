//! In-device WA experiment: groups → SSD streams, one-to-one (§3.1).
//!
//! Replays a workload through the engine twice over FTL-modeled member
//! SSDs — once with the paper's one-to-one group/stream mapping, once with
//! every write funneled through a single stream — and reports the
//! device-internal write amplification of each. The array-level traffic is
//! identical by construction; only the devices' internal GC differs.

use crate::replay::{drive, ReplayConfig};
use crate::scheme::Scheme;
use adapt_array::FtlArray;
use adapt_lss::PlacementPolicy;
use adapt_trace::TraceRecord;
use serde::Serialize;

/// Result of one multi-stream comparison cell.
#[derive(Debug, Clone, Serialize)]
pub struct MultiStreamResult {
    /// Scheme replayed.
    pub scheme: Scheme,
    /// Whether groups mapped to device streams.
    pub multi_stream: bool,
    /// Array-level WA (identical across the pair, sanity).
    pub array_wa: f64,
    /// Device-internal WA aggregated over members.
    pub in_device_wa: f64,
    /// Total device erase operations.
    pub erases: u64,
}

/// Replay `trace` over FTL-modeled devices with or without multi-stream.
pub fn replay_multistream<I>(
    scheme: Scheme,
    cfg: ReplayConfig,
    multi_stream: bool,
    trace: I,
) -> MultiStreamResult
where
    I: Iterator<Item = TraceRecord>,
{
    let policy = scheme.policy(&cfg.lss);
    let sink = FtlArray::new(
        cfg.lss.array_config(),
        cfg.lss.total_segments(),
        cfg.lss.segment_chunks,
        16 * 1024,
        policy.groups().len() + 1, // one stream per group + the device-GC stream
        multi_stream,
    );
    let mut engine = cfg.engine(policy, sink);
    drive(&mut engine, &cfg, trace);
    let sink = engine.sink();
    MultiStreamResult {
        scheme,
        multi_stream,
        array_wa: engine.metrics().wa(),
        in_device_wa: sink.in_device_wa(),
        erases: sink.ftl_stats().iter().map(|s| s.erases).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_lss::GcSelection;
    use adapt_trace::arrival::ArrivalModel;
    use adapt_trace::ycsb::{AccessDistribution, YcsbConfig};

    fn trace(updates: u64) -> impl Iterator<Item = TraceRecord> {
        YcsbConfig {
            num_blocks: 8 * 1024,
            num_updates: updates,
            zipf_alpha: 0.95,
            read_ratio: 0.0,
            arrival: ArrivalModel::Fixed { gap_us: 0 },
            blocks_per_request: 1,
            distribution: AccessDistribution::Zipfian,
            seed: 21,
        }
        .generator()
    }

    #[test]
    fn pair_has_identical_array_traffic() {
        let cfg = ReplayConfig::for_volume(8 * 1024, GcSelection::Greedy);
        let on = replay_multistream(Scheme::Adapt, cfg, true, trace(60_000));
        let off = replay_multistream(Scheme::Adapt, cfg, false, trace(60_000));
        assert!((on.array_wa - off.array_wa).abs() < 1e-9);
    }

    #[test]
    fn multistream_reduces_in_device_wa() {
        let cfg = ReplayConfig::for_volume(8 * 1024, GcSelection::Greedy);
        let on = replay_multistream(Scheme::Adapt, cfg, true, trace(80_000));
        let off = replay_multistream(Scheme::Adapt, cfg, false, trace(80_000));
        assert!(on.in_device_wa >= 1.0 && off.in_device_wa >= 1.0);
        assert!(
            on.in_device_wa <= off.in_device_wa + 1e-9,
            "multi-stream {:.3} should not exceed single-stream {:.3}",
            on.in_device_wa,
            off.in_device_wa
        );
    }

    #[test]
    fn erases_counted() {
        let cfg = ReplayConfig::for_volume(8 * 1024, GcSelection::Greedy);
        let r = replay_multistream(Scheme::SepGc, cfg, true, trace(60_000));
        assert!(r.erases > 0);
    }
}

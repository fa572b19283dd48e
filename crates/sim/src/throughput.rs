//! Fig. 12's shared-array throughput, from one deterministic replay (§4.4).
//!
//! The paper runs N paced YCSB-A clients against one engine over a
//! bandwidth-limited SSD array: until the array saturates, each client's
//! pacing sets throughput; past it, every byte GC and padding write is
//! bandwidth taken from clients, so a lower-WA policy serves more ops/s.
//! Both bounds are known without a clock. The pacing window is
//! `ops_per_client × CLIENT_SERVICE_US`; the array's busy time is the
//! busiest device's write bytes over its bandwidth, and the engine counts
//! those bytes exactly. So the clients' ops are replayed back to back as
//! one `clients × ops_per_client` YCSB-A stream, and throughput is the op
//! count over the longer of the two windows
//! ([`ThroughputResult::ops_per_sec`]). Same seed, same number, at any
//! thread count.

use crate::replay::{drive_with, ReplayConfig, Warmup};
use crate::scheme::Scheme;
use adapt_array::{ArraySink, CountingArray};
use adapt_lss::{EventConfig, EventStats, GcSelection, PlacementPolicy};
use adapt_trace::ycsb::{TrafficIntensity, YcsbConfig};
use std::ops::ControlFlow;

/// Mean service interval of one client per op (µs): think time plus an
/// I/O-depth-8 pipeline. It caps what one client can demand, so a single
/// client never saturates the array.
pub const CLIENT_SERVICE_US: u64 = 20;

/// Per-device write bandwidth (bytes/s), scaled down with the volumes so
/// the array saturates between 1 and 8 clients; the ratios between
/// schemes are what Fig. 12a reports.
pub const DEVICE_BYTES_PER_SEC: f64 = 120e6;

/// One scheme at one client count.
#[derive(Debug, PartialEq)]
pub struct ThroughputResult {
    /// Scheme replayed.
    pub scheme: Scheme,
    /// Paced clients sharing the engine.
    pub clients: u64,
    /// Operations each client issues (half reads, YCSB-A).
    pub ops_per_client: u64,
    /// Write amplification over the clients' window (after the load).
    pub wa: f64,
    /// Bytes written to the busiest member device over the window: data,
    /// padding and parity alike.
    pub busiest_device_bytes: u64,
    /// Policy-state resident bytes at the end (Fig. 12b).
    pub policy_memory_bytes: u64,
    /// Engine resident bytes (block index + policy) at the end.
    pub engine_memory_bytes: u64,
    /// Per-kind event totals over the whole replay (empty unless events
    /// were enabled).
    pub events: EventStats,
}

impl ThroughputResult {
    /// Fig. 12a: total ops over the longer of the pacing window and the
    /// busiest device's busy time at `device_bytes_per_sec`.
    pub fn ops_per_sec(&self, device_bytes_per_sec: f64) -> f64 {
        let paced_secs = (self.ops_per_client * CLIENT_SERVICE_US) as f64 * 1e-6;
        let busy_secs = self.busiest_device_bytes as f64 / device_bytes_per_sec;
        (self.clients * self.ops_per_client) as f64 / paced_secs.max(busy_secs)
    }
}

fn device_bytes(sink: &impl ArraySink) -> Vec<u64> {
    sink.stats().devices.iter().map(|d| d.total_bytes()).collect()
}

/// Replay `clients × ops_per_client` YCSB-A ops (Zipf 0.99, back to back)
/// over a `blocks`-block volume, filled first, through `scheme` with
/// Greedy GC, recording the event stream as `events` says.
pub fn replay_throughput(
    scheme: Scheme,
    blocks: u64,
    clients: u64,
    ops_per_client: u64,
    events: EventConfig,
) -> ThroughputResult {
    let cfg = ReplayConfig {
        warmup: Warmup::Blocks(blocks),
        events,
        ..ReplayConfig::for_volume(blocks, GcSelection::Greedy)
    };
    let sink = CountingArray::new(cfg.lss.array_config());
    let mut engine = cfg.engine(scheme.policy(&cfg.lss), sink);
    let trace =
        YcsbConfig::workload_a(blocks, clients * ops_per_client, 0.99, TrafficIntensity::Heavy)
            .generator();
    // The load phase is one record per block; its last record is the
    // warm-up edge, where the window's device bytes start counting.
    let mut loaded = Vec::new();
    drive_with(&mut engine, &cfg, trace, |e, i, read| {
        read.unwrap_or_else(|err| panic!("{err}"));
        if i + 1 == blocks {
            loaded = device_bytes(e.sink());
        }
        ControlFlow::Continue(())
    });
    let busiest_device_bytes = device_bytes(engine.sink())
        .iter()
        .zip(&loaded)
        .map(|(now, before)| now - before)
        .max()
        .unwrap_or(0);
    ThroughputResult {
        scheme,
        clients,
        ops_per_client,
        wa: engine.metrics().wa(),
        busiest_device_bytes,
        policy_memory_bytes: engine.policy().memory_bytes() as u64,
        engine_memory_bytes: engine.memory_bytes() as u64,
        events: engine.events().stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_excludes_the_load() {
        let r = replay_throughput(Scheme::SepGc, 8 * 1024, 1, 2_000, EventConfig::default());
        // The 32 MiB load plus its parity would put ~10.7 MiB on each of
        // the 4 devices; 1 000 writes put a fraction of that.
        assert!(r.busiest_device_bytes > 0);
        assert!(r.busiest_device_bytes < 8 << 20, "{}", r.busiest_device_bytes);
        assert!(r.wa > 0.0);
        assert!(r.engine_memory_bytes >= r.policy_memory_bytes);
    }
}

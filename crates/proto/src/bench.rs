//! Multi-client throughput benchmark (Fig. 12), rebased on the serving
//! engine's async submission API.
//!
//! N client threads issue a YCSB-A-shaped stream through cloned
//! [`Client`] handles against a one-shard server whose engine flushes
//! into a bandwidth-modeled array ([`ProtoSink`]). Clients are paced to
//! a fixed per-client service rate (think time + an I/O-depth-8
//! submission window), so a single client cannot saturate the array;
//! with 4–8 clients the shard becomes the bottleneck, and each policy's
//! sustainable throughput is set by how much of the bandwidth its GC +
//! padding traffic burns. Background GC runs on the shard's drain
//! thread, interleaved with serving, exactly as production serving
//! configures it.
//!
//! Latency is measured end to end: every eighth write is submitted and
//! awaited round trip, so the percentiles cover queueing, apply, and the
//! group-commit barrier — the latency a real caller of the async API
//! observes, not just the engine's lock hold time.

use crate::sink::ProtoSink;
use crate::timeline::DeviceTimeline;
use adapt_lss::{GcSelection, Lss, LssConfig, PlacementPolicy};
use adapt_serve::{Client, Request, ServerBuilder, ShardEngine, ShardPlan, Ticket};
use adapt_sim::serve::{start_server_with, ShardEngineBuilder};
use adapt_sim::Scheme;
use adapt_trace::rng::Xoshiro256StarStar;
use adapt_trace::ZipfGenerator;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Throughput experiment configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ThroughputConfig {
    /// Volume size in blocks (pre-filled before timing).
    pub num_blocks: u64,
    /// Operations issued per client during the timed run.
    pub ops_per_client: u64,
    /// Number of client threads (paper: 1, 4, 8).
    pub clients: usize,
    /// Zipfian skew of the update stream (YCSB-A default 0.99).
    pub zipf_alpha: f64,
    /// Read fraction (reads bypass the write path; YCSB-A: 0.5).
    pub read_ratio: f64,
    /// Per-device bandwidth (bytes/s). Scaled down so a laptop-scale run
    /// saturates in seconds; the *ratios* between schemes are what Fig. 12a
    /// reports.
    pub device_bytes_per_sec: f64,
    /// Per-client mean service interval per op (µs): models client think
    /// time plus an I/O depth-8 pipeline; bounds a single client's demand.
    pub client_service_us: u64,
    /// GC victim selection.
    pub gc: GcSelection,
    /// Run GC on the shard's drain thread (interleaved with serving, as
    /// the paper's background-GC configuration) instead of inline on the
    /// write path.
    pub background_gc: bool,
    /// RNG seed base.
    pub seed: u64,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self {
            num_blocks: 48 * 1024,
            ops_per_client: 12_000,
            clients: 4,
            zipf_alpha: 0.99,
            read_ratio: 0.5,
            device_bytes_per_sec: 120e6,
            client_service_us: 20,
            gc: GcSelection::Greedy,
            background_gc: true,
            seed: 0xB_EEF,
        }
    }
}

/// Result of one throughput run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputResult {
    /// Scheme measured.
    pub scheme: Scheme,
    /// Client threads used.
    pub clients: usize,
    /// Aggregate operations per second over the timed window.
    pub ops_per_sec: f64,
    /// Write amplification over the timed window.
    pub wa: f64,
    /// Policy-state resident bytes at the end (Fig. 12b).
    pub policy_memory_bytes: u64,
    /// Engine resident bytes (block index + policy) at the end.
    pub engine_memory_bytes: u64,
    /// Wall-clock duration of the timed window.
    pub elapsed_secs: f64,
    /// Median end-to-end write latency (submit → completion), µs.
    pub p50_latency_us: f64,
    /// 99th-percentile end-to-end write latency, µs.
    pub p99_latency_us: f64,
}

fn engine_config(cfg: &ThroughputConfig) -> LssConfig {
    // Same sizing policy as the simulator (OP floored for small volumes).
    // The serving clock advances 1 µs per applied op; pushing the flush
    // SLA out of reach reproduces the saturated-submission setup where
    // coalescing windows always fill before they expire.
    adapt_sim::ReplayConfig::for_volume(cfg.num_blocks, cfg.gc)
        .lss
        .with_background_gc(cfg.background_gc)
        .with_sla_us(1 << 40)
}

/// Engine factory: [`ProtoSink`] over the shared timeline, dense
/// pre-fill, metrics reset so the timed window starts clean.
struct PrefilledProtoEngines {
    timeline: Arc<DeviceTimeline>,
    gc: GcSelection,
}

impl ShardEngineBuilder for PrefilledProtoEngines {
    fn build<P: PlacementPolicy + Send + 'static>(
        &mut self,
        plan: &ShardPlan,
        policy: P,
    ) -> Box<dyn ShardEngine> {
        let sink = ProtoSink::new(plan.lss.array_config(), Arc::clone(&self.timeline));
        let mut engine = Lss::builder(policy, sink).config(plan.lss).gc_select(self.gc).build();
        for lba in 0..plan.lss.user_blocks {
            engine.write(0, lba);
        }
        engine.reset_metrics();
        Box::new(engine)
    }
}

/// Run the throughput benchmark for one scheme.
pub fn run_throughput(scheme: Scheme, cfg: ThroughputConfig) -> ThroughputResult {
    run_with_timeline(scheme, cfg).0
}

/// [`run_throughput`], plus the timeline the timed window charged.
fn run_with_timeline(
    scheme: Scheme,
    cfg: ThroughputConfig,
) -> (ThroughputResult, Arc<DeviceTimeline>) {
    let lss = engine_config(&cfg);
    let timeline =
        Arc::new(DeviceTimeline::new(lss.array_config().num_devices, cfg.device_bytes_per_sec));
    // One shard, one slot: the shared-engine configuration of Fig. 12.
    let builder = ServerBuilder::new()
        .shards(1)
        .queue_depth(256)
        .group_commit_window(8 * cfg.clients.max(1) as u32)
        .range_blocks(cfg.num_blocks)
        .engine_config(lss)
        .volume(0, cfg.num_blocks);
    let server = start_server_with(
        scheme,
        builder,
        PrefilledProtoEngines { timeline: Arc::clone(&timeline), gc: cfg.gc },
    );
    timeline.reset();

    let start = Instant::now();
    let mut latencies_ns: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client_idx| {
                let client = server.client();
                let timeline = Arc::clone(&timeline);
                scope.spawn(move || run_client(&cfg, client_idx, client, &timeline))
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client panicked")).collect()
    });
    let elapsed = start.elapsed();
    latencies_ns.sort_unstable();
    let pick = |q: f64| -> f64 {
        if latencies_ns.is_empty() {
            return 0.0;
        }
        let idx = ((latencies_ns.len() - 1) as f64 * q) as usize;
        latencies_ns[idx] as f64 / 1000.0
    };
    let (p50, p99) = (pick(0.5), pick(0.99));

    let report = server.shutdown();
    let shard = &report.shards[0];
    assert!(report.balanced(), "throughput run lost completions");
    let total_ops = (cfg.ops_per_client * cfg.clients as u64) as f64;
    let result = ThroughputResult {
        scheme,
        clients: cfg.clients,
        ops_per_sec: total_ops / elapsed.as_secs_f64(),
        wa: shard.telemetry.wa,
        policy_memory_bytes: shard.policy_memory_bytes,
        engine_memory_bytes: shard.engine_memory_bytes,
        elapsed_secs: elapsed.as_secs_f64(),
        p50_latency_us: p50,
        p99_latency_us: p99,
    };
    (result, timeline)
}

/// One client thread: paced YCSB-A stream through the async API with an
/// I/O-depth-8 in-flight window. Returns sampled write latencies (ns).
fn run_client(
    cfg: &ThroughputConfig,
    client_idx: usize,
    client: Client,
    timeline: &DeviceTimeline,
) -> Vec<u64> {
    const DEPTH: usize = 8;
    let tenant = client_idx as u32;
    let mut rng = Xoshiro256StarStar::new(cfg.seed ^ (client_idx as u64) << 32);
    let zipf = ZipfGenerator::new(cfg.num_blocks, cfg.zipf_alpha);
    let scatter = adapt_trace::rng::mix64(cfg.seed) | 1;
    let client_start = Instant::now();
    let mut vtime_us: u64 = 0;
    let mut inflight: VecDeque<Ticket> = VecDeque::with_capacity(DEPTH);
    let mut lat = Vec::with_capacity(cfg.ops_per_client as usize / 8);
    for i in 0..cfg.ops_per_client {
        let rank = zipf.sample(&mut rng);
        let lba = ((rank as u128 * scatter as u128) % cfg.num_blocks as u128) as u64;
        if rng.next_f64() >= cfg.read_ratio {
            let request = Request::write(tenant, 0, lba, 1);
            if i % 8 == 0 {
                // Round-trip sample: end-to-end latency through queue,
                // apply, and group-commit barrier.
                let t0 = Instant::now();
                let ticket = client.submit_backoff(request).expect("submit");
                let c = client.wait(ticket);
                assert!(c.result.is_ok(), "write failed: {:?}", c.result);
                lat.push(t0.elapsed().as_nanos() as u64);
            } else {
                let ticket = client.submit_backoff(request).expect("submit");
                inflight.push_back(ticket);
                if inflight.len() >= DEPTH {
                    let t = inflight.pop_front().unwrap();
                    let c = client.wait(t);
                    assert!(c.result.is_ok(), "write failed: {:?}", c.result);
                }
            }
        }
        vtime_us += cfg.client_service_us;
        if i % 64 == 63 {
            // Client-side pacing (think time / queue depth).
            let target = Duration::from_micros(vtime_us);
            let elapsed = client_start.elapsed();
            if target > elapsed {
                std::thread::sleep(target - elapsed);
            }
            // Array back-pressure.
            timeline.throttle();
        }
    }
    for t in inflight {
        let c = client.wait(t);
        assert!(c.result.is_ok(), "write failed: {:?}", c.result);
    }
    lat
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(clients: usize) -> ThroughputConfig {
        ThroughputConfig {
            num_blocks: 8 * 1024,
            ops_per_client: 2_000,
            clients,
            client_service_us: 10,
            device_bytes_per_sec: 60e6,
            ..Default::default()
        }
    }

    #[test]
    fn single_client_run_completes() {
        let r = run_throughput(Scheme::SepGc, quick_cfg(1));
        assert!(r.ops_per_sec > 0.0);
        // WA can dip below 1 on short windows: hot overwrites coalesce in
        // the open-chunk buffer before ever reaching the array.
        assert!(r.wa > 0.3 && r.wa < 20.0, "wa {}", r.wa);
        assert!(r.elapsed_secs > 0.0);
        assert!(r.p99_latency_us >= r.p50_latency_us);
    }

    #[test]
    fn multi_client_run_aggregates_ops() {
        let r = run_throughput(Scheme::Adapt, quick_cfg(4));
        assert_eq!(r.clients, 4);
        assert!(r.ops_per_sec > 0.0);
        assert!(r.policy_memory_bytes > 0);
        assert!(r.engine_memory_bytes >= r.policy_memory_bytes);
    }

    #[test]
    fn throughput_scales_with_clients_when_unsaturated() {
        // The modelled quantity, not a ratio of two wall clocks (which the
        // scheduler of a 2-CPU host sets): throughput is the op count over
        // the longer of the window the pacing allots and the time charged
        // to the busiest device. With a huge bandwidth budget the array
        // never binds, so the paced demand — and with it 4 clients' ops
        // against 1 client's — sets the result.
        let modelled_ops_per_sec = |clients: usize| {
            let cfg = ThroughputConfig {
                device_bytes_per_sec: 10e9,
                client_service_us: 200,
                ..quick_cfg(clients)
            };
            let (_, timeline) = run_with_timeline(Scheme::SepGc, cfg);
            let paced_ns = cfg.ops_per_client * cfg.client_service_us * 1_000;
            let charged_ns = timeline.max_busy_ns();
            assert!(charged_ns > 0, "flushes must reach the timeline");
            assert!(
                charged_ns < paced_ns / 10,
                "{clients} client(s): array charged {charged_ns} ns of a {paced_ns} ns window"
            );
            (cfg.ops_per_client * clients as u64) as f64 * 1e9 / paced_ns.max(charged_ns) as f64
        };
        let (one, four) = (modelled_ops_per_sec(1), modelled_ops_per_sec(4));
        assert!(four > 3.9 * one, "1 client {one:.0} vs 4 clients {four:.0}");
    }

    #[test]
    fn inline_gc_mode_still_works() {
        let mut cfg = quick_cfg(2);
        cfg.background_gc = false;
        let r = run_throughput(Scheme::SepBit, cfg);
        assert!(r.ops_per_sec > 0.0);
    }

    #[test]
    fn scheme_tag_preserved() {
        let r = run_throughput(Scheme::SepBit, quick_cfg(1));
        assert_eq!(r.scheme, Scheme::SepBit);
    }
}

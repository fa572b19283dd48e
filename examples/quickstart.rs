//! Quickstart: build a log-structured store with the ADAPT placement
//! policy, feed it a small skewed workload, and read the write
//! amplification / padding metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use adapt_repro::adapt::Adapt;
use adapt_repro::array::{ArraySink, CountingArray};
use adapt_repro::lss::{EngineError, EventConfig, GcSelection, Lss, LssConfig};
use adapt_repro::trace::ycsb::{AccessDistribution, TrafficIntensity, YcsbConfig};

fn main() -> Result<(), EngineError> {
    // 1. Configure the engine: 4 KiB blocks, 64 KiB chunks, 512 KiB
    //    segments, 100 µs coalescing SLA — the paper's setup.
    let cfg = LssConfig { user_blocks: 32 * 1024, op_ratio: 0.28, ..Default::default() };

    // 2. Pick a placement policy (ADAPT here; see `adapt_placement` for the
    //    baselines) and an array sink (accounting-only RAID-5). Event
    //    capture is opt-in; it feeds the telemetry snapshot below.
    let policy = Adapt::new(&cfg);
    let sink = CountingArray::new(cfg.array_config());
    let mut engine = Lss::builder(policy, sink)
        .config(cfg)
        .gc_select(GcSelection::Greedy)
        .events(EventConfig::enabled())
        .build();

    // 3. Drive it with a workload. YCSB-A-shaped: fill once, then Zipfian
    //    updates at medium intensity (some chunks fill, some pad).
    let workload = YcsbConfig {
        num_blocks: 32 * 1024,
        num_updates: 200_000,
        zipf_alpha: 0.9,
        read_ratio: 0.0,
        arrival: TrafficIntensity::Medium.arrival(),
        blocks_per_request: 1,
        distribution: AccessDistribution::Zipfian,
        seed: 7,
    };
    let mut filled = false;
    for rec in workload.generator() {
        engine.try_write_request(rec.ts_us, rec.lba, rec.num_blocks)?;
        // Measure steady state only: reset counters once the fill is done.
        if !filled && engine.user_bytes_clock() >= 32 * 1024 * 4096 {
            engine.reset_metrics();
            filled = true;
        }
    }
    engine.try_flush_all()?;

    // 4. Inspect the results — one unified snapshot, then the raw metrics.
    let telemetry = engine.telemetry();
    let m = engine.metrics();
    println!("host writes      : {:>10} bytes", m.host_write_bytes);
    println!("user flushed     : {:>10} bytes", m.user_bytes);
    println!("GC rewrites      : {:>10} bytes", m.gc_bytes);
    println!("shadow copies    : {:>10} bytes", m.shadow_bytes);
    println!("zero padding     : {:>10} bytes", m.pad_bytes);
    println!("write amp (WA)   : {:>10.3}", m.wa());
    println!("padding ratio    : {:>10.1}%", m.padding_ratio() * 100.0);
    println!("GC passes        : {:>10}", m.gc_passes);
    println!("shadow appends   : {:>10}", m.shadow_append_events);
    println!(
        "adaptive thresh  : {:>10.0} bytes ({} adoptions)",
        engine.policy().effective_threshold(),
        engine.policy().adoptions()
    );
    println!("policy memory    : {:>10} bytes", engine.memory_bytes());

    let stats = engine.sink().stats();
    println!(
        "array            : {} chunks ({} padded), parity {} bytes, imbalance {:.4}",
        stats.devices.iter().map(|d| d.chunk_writes).sum::<u64>(),
        stats.padded_chunks,
        stats.parity_bytes(),
        stats.device_imbalance()
    );
    println!(
        "events           : {:>10} emitted across {} kinds, {} gauge samples",
        telemetry.events.emitted,
        telemetry.events.distinct_kinds(),
        telemetry.gauges.len()
    );
    println!("durability p99   : {:>10} µs", telemetry.durability_latency.p99_us);
    Ok(())
}

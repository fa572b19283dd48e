//! `array-rebuild`: the byte-level 4+2 array alone — write, verified
//! read-back, two device failures, degraded reads, rebuild, one scrub
//! pass. The only workload where the XOR / GF(256) / CRC32C kernels and
//! Reed-Solomon do most of the work; engine, policy and serve do none.

use crate::report::{EndToEnd, Medians, PerLayer, Verdict};
use crate::spans::{self, Ctx, Kind, Probe, Span, NO_REQ};
use crate::stats;
use crate::sut::{self, Loc, Store, CHUNK_BYTES};
use crate::Params;
use serde::Value;
use std::sync::Arc;
use std::time::Instant;

/// Distinct 64 KiB payloads per repetition: 128 MiB of user data (192 MiB
/// stored), several times any cache of this machine.
const CHUNKS: usize = 2048;
/// The two devices that fail (4+2 tolerates exactly two).
const FAILED: [usize; 2] = [1, 4];
/// Stripes per `rebuild_step` / `scrub_step` call.
const STEP_STRIPES: usize = 64;

fn chunks(p: &Params) -> usize {
    if p.quick {
        CHUNKS / 16
    } else {
        CHUNKS
    }
}

fn payload(p: &Params) -> Vec<u8> {
    let mut rng = crate::SplitMix(p.seed ^ 0xA22A);
    let mut out = Vec::with_capacity(chunks(p) * CHUNK_BYTES);
    while out.len() < chunks(p) * CHUNK_BYTES {
        out.extend_from_slice(&rng.next().to_le_bytes());
    }
    out
}

/// Wall time of each phase and the per-chunk times of reconstructed reads.
struct Rep {
    write_s: f64,
    verify_s: f64,
    degraded_s: f64,
    rebuild_s: f64,
    scrub_s: f64,
    reconstructed_ns: Vec<u64>,
    chunk_ops: u64,
    stripes_scrubbed: u64,
    stats: sut::StoreStats,
    failed_ops: u64,
    problems: Vec<String>,
    spans: Vec<Span>,
    /// Time inside timed store calls (the rest of the wall is this loop).
    op_ns: u64,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        self.write_s + self.verify_s + self.degraded_s + self.rebuild_s + self.scrub_s
    }
}

/// Times every store call; records a span for it when tracing.
struct Timer {
    probe: Option<Probe>,
    op_ns: u64,
}

impl Timer {
    #[inline]
    fn time<R>(&mut self, kind: Kind, req: usize, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = Instant::now();
        let r = match self.probe.as_mut() {
            Some(p) => p.timed(kind, req as u32, f),
            None => f(),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        self.op_ns += ns;
        (r, ns)
    }
}

fn rep(data: &[u8], ctx: Option<&Arc<Ctx>>) -> Rep {
    let n = data.len() / CHUNK_BYTES;
    let chunk = |i: usize| &data[i * CHUNK_BYTES..(i + 1) * CHUNK_BYTES];
    let mut t = Timer { probe: ctx.map(Probe::new), op_ns: 0 };
    let mut store = Store::new();
    let mut failed_ops = 0u64;
    let mut problems = Vec::new();

    let t0 = Instant::now();
    let locs: Vec<Loc> =
        (0..n).map(|i| t.time(Kind::StoreWrite, i, || store.write(chunk(i))).0).collect();
    let write_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for (i, loc) in locs.iter().enumerate() {
        match t.time(Kind::StoreVerifyRead, i, || store.read_expect(*loc, chunk(i))).0 {
            Ok(false) => {}
            Ok(true) => problems.push(format!("chunk {i} read degraded on a healthy array")),
            Err(e) => {
                failed_ops += 1;
                problems.push(format!("verify read {i}: {e}"));
            }
        }
    }
    let verify_s = t0.elapsed().as_secs_f64();

    for d in FAILED {
        store.fail_device(d);
    }
    let mut reconstructed_ns = Vec::with_capacity(n / 2);
    let t0 = Instant::now();
    for (i, loc) in locs.iter().enumerate() {
        let (r, ns) = t.time(Kind::StoreDegradedRead, i, || store.read_expect(*loc, chunk(i)));
        match r {
            Ok(true) => reconstructed_ns.push(ns),
            Ok(false) => {}
            Err(e) => {
                failed_ops += 1;
                problems.push(format!("degraded read {i}: {e}"));
            }
        }
    }
    let degraded_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for d in FAILED {
        if let Err(e) = store.start_rebuild(d) {
            problems.push(format!("start_rebuild({d}): {e}"));
            continue;
        }
        loop {
            match t.time(Kind::StoreRebuild, NO_REQ as usize, || store.rebuild_step(STEP_STRIPES)).0
            {
                Ok(true) => break,
                Ok(false) => {}
                Err(e) => {
                    problems.push(format!("rebuild_step({d}): {e}"));
                    break;
                }
            }
        }
    }
    let rebuild_s = t0.elapsed().as_secs_f64();
    if !store.healthy() {
        problems.push("array not healthy after rebuilding both devices".into());
    }
    // Untimed: every payload is byte-identical after the rebuild, read directly.
    for (i, loc) in locs.iter().enumerate() {
        match store.read_expect(*loc, chunk(i)) {
            Ok(false) => {}
            Ok(true) => problems.push(format!("chunk {i} still degraded after rebuild")),
            Err(e) => {
                failed_ops += 1;
                problems.push(format!("read after rebuild {i}: {e}"));
            }
        }
    }

    let mut stripes_scrubbed = 0;
    let t0 = Instant::now();
    loop {
        let (stripes, complete) =
            t.time(Kind::StoreScrub, NO_REQ as usize, || store.scrub_step(STEP_STRIPES)).0;
        stripes_scrubbed += stripes;
        if complete || stripes == 0 {
            break;
        }
    }
    let scrub_s = t0.elapsed().as_secs_f64();

    let stats = store.stats();
    if stats.corruptions_detected != 0 {
        problems
            .push(format!("scrub found {} corruptions in clean data", stats.corruptions_detected));
    }
    if stats.degraded_reads != reconstructed_ns.len() as u64 {
        problems.push(format!(
            "{} reads were served degraded but the array counted {}",
            reconstructed_ns.len(),
            stats.degraded_reads
        ));
    }
    Rep {
        write_s,
        verify_s,
        degraded_s,
        rebuild_s,
        scrub_s,
        reconstructed_ns,
        // One per chunk written, read back, read degraded, rebuilt, scrubbed.
        chunk_ops: 3 * n as u64 + stats.rebuilt_chunks + stats.chunks_scrubbed,
        stripes_scrubbed,
        stats,
        failed_ops,
        problems,
        spans: t.probe.map(|mut p| p.take().spans).unwrap_or_default(),
        op_ns: t.op_ns,
    }
}

fn judge(v: &mut Verdict, r: &Rep) {
    v.attempted += r.chunk_ops;
    v.failed += r.failed_ops;
    for p in &r.problems {
        v.fail(p.clone());
    }
    v.check(r.problems.is_empty(), || "output checks".into());
}

fn info(p: &Params) -> Vec<(String, Value)> {
    vec![
        ("geometry".into(), Value::Str("4+2, 64 KiB chunks".into())),
        ("chunks_per_rep".into(), Value::UInt(chunks(p) as u64)),
        ("failed_devices".into(), Value::Array(FAILED.iter().map(|&d| Value::UInt(d as u64)).collect())),
        ("throughput_is".into(), Value::Str("chunk operations (written, read back, read degraded, rebuilt, scrubbed) per second over the five phases".into())),
        ("latency_is".into(), Value::Str("median time of one reconstructed 64 KiB read with two devices failed".into())),
        ("wa_is".into(), Value::Str("(data + parity) bytes stored / payload bytes".into())),
    ]
}

pub fn end_to_end(p: &Params) -> EndToEnd {
    let mut out = EndToEnd::default();
    let mut data = Vec::new();
    for _ in 0..p.setups() {
        let t0 = Instant::now();
        data = payload(p);
        drop(Store::new());
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    if !p.quick {
        rep(&data, None); // warm-up, discarded
    }
    let t0 = Instant::now();
    while out.throughput_kops.len() < p.min_reps() || t0.elapsed().as_secs_f64() < p.seconds {
        let mut r = rep(&data, None);
        judge(&mut out.verdict, &r);
        out.throughput_kops.push(r.chunk_ops as f64 / r.wall_s() / 1e3);
        out.latency_p50_us.push(stats::median_u64(&mut r.reconstructed_ns) / 1e3);
        out.wa = (r.stats.data_bytes + r.stats.parity_bytes) as f64 / data.len() as f64;
        if p.quick {
            break;
        }
    }
    out.info = info(p);
    out
}

pub fn per_layer(p: &Params) -> (PerLayer, Vec<Span>) {
    let mut out = PerLayer::default();
    let mut m = Medians::default();
    let data = payload(p);
    let timer_ns = spans::calibrate_timer_ns();
    match sut::kernel_gibs(&data, if p.quick { 256 } else { 4096 }) {
        Ok([xor, gf, crc, enc, rec]) => {
            m.push("array.kernels.xor_gibs", xor);
            m.push("array.kernels.gf_mul_gibs", gf);
            m.push("array.kernels.crc32c_gibs", crc);
            m.push("array.kernels.rs_encode_gibs", enc);
            m.push("array.kernels.rs_recover_gibs", rec);
        }
        Err(e) => out.verdict.fail(e),
    }

    let gib = |bytes: u64, secs: f64| bytes as f64 / (1u64 << 30) as f64 / secs;
    let mut last_spans = Vec::new();
    let mut pairs = 0;
    let t0 = Instant::now();
    while pairs == 0 || (!p.quick && t0.elapsed().as_secs_f64() < p.seconds) {
        let plain = rep(&data, None);
        judge(&mut out.verdict, &plain);
        let ctx = Ctx::new();
        let mut r = rep(&data, Some(&ctx));
        judge(&mut out.verdict, &r);
        out.verdict.check(
            (plain.chunk_ops, plain.stats.rebuilt_chunks, plain.stats.chunks_scrubbed)
                == (r.chunk_ops, r.stats.rebuilt_chunks, r.stats.chunks_scrubbed),
            || "traced repetition changed the array's counters".into(),
        );
        let bytes = data.len() as u64;
        m.push("array.store.write_gibs", gib(bytes, r.write_s));
        m.push("array.store.verify_read_gibs", gib(bytes, r.verify_s));
        m.push("array.store.degraded_read_gibs", gib(bytes, r.degraded_s));
        m.push(
            "array.store.rebuild_gibs",
            gib(r.stats.rebuilt_chunks * CHUNK_BYTES as u64, r.rebuild_s),
        );
        m.push("array.store.scrub_stripes_per_s", r.stripes_scrubbed as f64 / r.scrub_s);
        // The store *is* the sink here: its write and read calls, timed directly.
        let n = (data.len() / CHUNK_BYTES) as f64;
        m.push("array.sink.write_calls", n);
        m.push("array.sink.write_ns_per_chunk", r.write_s * 1e9 / n);
        m.push("array.sink.read_calls", 2.0 * n);
        m.push("array.sink.read_ns_per_chunk", (r.verify_s + r.degraded_s) * 1e9 / (2.0 * n));
        m.push("array.sink.busy_share", r.op_ns as f64 / (r.wall_s() * 1e9));
        m.push("array.sink.copy_bytes_per_host_byte", r.stats.copy_bytes as f64 / bytes as f64);
        m.push("bench.timer_ns", timer_ns);
        m.push("bench.trace_overhead_ratio", r.wall_s() / plain.wall_s());
        m.push("bench.unattributed_share", 1.0 - r.op_ns as f64 / (r.wall_s() * 1e9));
        last_spans = std::mem::take(&mut r.spans);
        pairs += 1;
    }
    out.finish(m);
    out.info = info(p);
    out.info.push(("traced_pairs".into(), Value::UInt(pairs)));
    (out, last_spans)
}

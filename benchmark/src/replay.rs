//! `replay-dense` and `replay-sparse`: one thread drives `Lss` + ADAPT +
//! Greedy over a `CountingArray`; `serve` is bypassed and the sink only
//! counts, so `lss.engine` and `core` do nearly all the work.

use crate::report::{EndToEnd, Medians, PerLayer, Verdict};
use crate::spans::{self, Collected, Ctx, Kind, Probe, Span, SAMPLE_EVERY};
use crate::stats;
use crate::sut::{self, Arrival, Counters, Op, OpKind, Scheme};
use crate::Params;
use serde::Value;
use std::sync::Arc;
use std::time::Instant;

pub struct Spec {
    scheme: Scheme,
    blocks: u64,
    updates: u64,
    zipf_alpha: f64,
    read_ratio: f64,
    arrival: Arrival,
    /// One `len`-block trim after every `every` run-phase ops.
    trim: Option<(u64, u32)>,
    /// Replay the same ops once under SepBIT and SepGC (traced run only).
    controls: bool,
}

/// Saturated regime (Fig. 11 heavy / Fig. 12): sequential fill of a
/// 256 Ki-block (1 GiB) volume, then 8 volume-sizes of zipf-0.9
/// single-block overwrites submitted back to back (the trace layer's
/// "heavy" intensity: simulated time stands still, so no SLA window ever
/// expires and nothing pads). Full ADAPT, demotion included.
pub const DENSE: Spec = Spec {
    scheme: Scheme::Adapt,
    blocks: 256 * 1024,
    updates: 8 * 256 * 1024,
    zipf_alpha: 0.9,
    read_ratio: 0.0,
    arrival: Arrival::FixedGapUs(0),
    trim: None,
    controls: true,
};

/// YCSB-A shape at the paper's "medium" intensity (Fig. 9–11): zipf 0.99,
/// half reads, Poisson 16 667 req/s (mean gap 60 µs — some chunks fill,
/// many hit the 100 µs SLA), a 16-block trim every 256 ops. ADAPT with
/// demotion off (see `sut::adapt` for why).
pub const SPARSE: Spec = Spec {
    scheme: Scheme::AdaptNoDemotion,
    blocks: 256 * 1024,
    updates: 2 * 1024 * 1024,
    zipf_alpha: 0.99,
    read_ratio: 0.5,
    arrival: Arrival::PoissonPerSec(16_667.0),
    trim: Some((256, 16)),
    controls: false,
};

impl Spec {
    fn scaled(&self, quick: bool) -> (u64, u64) {
        if quick {
            (self.blocks / 16, self.updates / 16)
        } else {
            (self.blocks, self.updates)
        }
    }

    fn inputs(&self, p: &Params) -> Vec<Op> {
        let (blocks, updates) = self.scaled(p.quick);
        let base = sut::ycsb_ops(
            blocks,
            updates,
            Some(self.zipf_alpha),
            self.read_ratio,
            self.arrival,
            p.seed,
        );
        let Some((every, len)) = self.trim else { return base };
        let mut ops = Vec::with_capacity(base.len() + base.len() / every as usize + 1);
        let mut rng = crate::SplitMix(p.seed ^ 0x7219);
        for (i, op) in base.into_iter().enumerate() {
            ops.push(op);
            let run_idx = (i as u64).saturating_sub(blocks);
            if i as u64 >= blocks && (run_idx + 1).is_multiple_of(every) {
                let lba = rng.next() % (blocks - len as u64);
                ops.push(Op { ts_us: op.ts_us, lba, blocks: len, kind: OpKind::Trim });
            }
        }
        ops
    }
}

fn kind_of(op: &Op) -> Kind {
    match op.kind {
        OpKind::Write => Kind::EngineWrite,
        OpKind::Read => Kind::EngineRead,
        OpKind::Trim => Kind::EngineTrim,
    }
}

/// One repetition on a fresh engine.
struct Rep {
    wall_s: f64,
    /// Mean service time per request of each 64-request batch.
    batch_ns_per_op: Vec<f64>,
    flush_ns: u64,
    gc_select_ns: u64,
    counters: Counters,
    failed_ops: u64,
    problems: Vec<String>,
    trace: Collected,
}

fn rep(ops: &[Op], scheme: Scheme, blocks: u64, ctx: Option<&Arc<Ctx>>) -> Rep {
    let mut engine = sut::mem_engine(scheme, blocks, ctx);
    // Traced: one recorder for the batches, one for the sampled requests
    // inside them.
    let mut probes = ctx.map(|c| (Probe::new(c), Probe::new(c)));
    let mut failed_ops = 0u64;
    let mut problems = Vec::new();
    let mut note = |r: Result<(), String>| {
        if let Err(e) = r {
            failed_ops += 1;
            if problems.len() < 3 {
                problems.push(format!("engine op failed: {e}"));
            }
        }
    };
    let mut batch_ns_per_op = Vec::with_capacity(ops.len() / SAMPLE_EVERY as usize + 1);
    let t0 = Instant::now();
    for (b, batch) in ops.chunks(SAMPLE_EVERY as usize).enumerate() {
        let b0 = Instant::now();
        let first = (b as u64 * SAMPLE_EVERY) as u32;
        match probes.as_mut() {
            // Traced: the batch is a span, the parent of the policy and
            // sink spans recorded inside it, and its first request is
            // timed on its own (1-in-64 of the requests).
            Some((p, inner)) => p.scope(Kind::EngineBatch, first, || {
                note(inner.timed(kind_of(&batch[0]), first, || engine.apply(&batch[0])));
                batch[1..].iter().for_each(|op| note(engine.apply(op)));
            }),
            None => batch.iter().for_each(|op| note(engine.apply(op))),
        }
        batch_ns_per_op.push(b0.elapsed().as_nanos() as f64 / batch.len() as f64);
    }
    let f0 = Instant::now();
    let flushed = match probes.as_mut() {
        Some((p, _)) => p.timed(Kind::EngineFlushAll, spans::NO_REQ, || engine.flush_all()),
        None => engine.flush_all(),
    };
    let flush_ns = f0.elapsed().as_nanos() as u64;
    let wall_s = t0.elapsed().as_secs_f64();

    problems.extend(engine.verify());
    if let Err(e) = flushed {
        problems.push(format!("flush_all: {e}"));
    }
    let mut trace = engine.take_trace();
    if let Some((mut p, mut inner)) = probes {
        trace.merge(p.take());
        trace.merge(inner.take());
    }
    Rep {
        wall_s,
        batch_ns_per_op,
        flush_ns,
        gc_select_ns: engine.gc_select_ns(),
        counters: engine.counters(),
        failed_ops,
        problems,
        trace,
    }
}

fn judge(v: &mut Verdict, r: &Rep, ops: usize, reference: Option<&Counters>) {
    v.attempted += ops as u64;
    v.failed += r.failed_ops;
    for p in &r.problems {
        v.fail(p.clone());
    }
    v.check(r.problems.is_empty(), || "output checks".into());
    if let Some(c) = reference {
        v.check(*c == r.counters, || {
            format!("counters differ between repetitions: {:?} vs {:?}", c, r.counters)
        });
    }
}

fn info(spec: &Spec, p: &Params, ops: &[Op]) -> Vec<(String, Value)> {
    let (blocks, updates) = spec.scaled(p.quick);
    vec![
        ("user_blocks".into(), Value::UInt(blocks)),
        ("run_phase_requests".into(), Value::UInt(updates)),
        ("ops_per_rep".into(), Value::UInt(ops.len() as u64)),
        (
            "latency_is".into(),
            Value::Str("median over 64-request batches of mean service time per request".into()),
        ),
    ]
}

pub fn end_to_end(spec: &Spec, p: &Params) -> EndToEnd {
    let mut out = EndToEnd::default();
    let mut ops = Vec::new();
    for _ in 0..p.setups() {
        // Set-up: generate the inputs and build (and drop) a fresh engine.
        let t0 = Instant::now();
        ops = spec.inputs(p);
        drop(sut::mem_engine(spec.scheme, spec.scaled(p.quick).0, None));
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let blocks = spec.scaled(p.quick).0;
    let mut reference: Option<Counters> = None;
    if !p.quick {
        reference = Some(rep(&ops, spec.scheme, blocks, None).counters); // warm-up, discarded
    }
    let t0 = Instant::now();
    while out.throughput_kops.len() < p.min_reps() || t0.elapsed().as_secs_f64() < p.seconds {
        let mut r = rep(&ops, spec.scheme, blocks, None);
        judge(&mut out.verdict, &r, ops.len(), reference.as_ref());
        out.throughput_kops.push(ops.len() as f64 / r.wall_s / 1e3);
        out.latency_p50_us.push(stats::median(&mut r.batch_ns_per_op) / 1e3);
        out.wa = r.counters.wa();
        reference.get_or_insert(r.counters);
        if p.quick {
            break;
        }
    }
    out.info = info(spec, p, &ops);
    out
}

/// Per-layer numbers of one traced repetition (against the untraced
/// repetition `plain` that ran just before it). Times are net of the
/// calibrated clock-read cost and set against the *untraced* wall.
fn layer_metrics(m: &mut Medians, ops: &[Op], plain: &Rep, traced: &Rep, timer_ns: f64) {
    let wall_ns = plain.wall_s * 1e9;
    let t = &traced.trace.tallies;

    // What the engine layer took in all comes from the *untraced*
    // repetition (every batch timed, nothing inside them): exact. The
    // traced repetition supplies the inner layers' estimates; the clock
    // reads serialize the calls they time, so those are upper bounds.
    let batch_total = |r: &Rep| -> f64 {
        r.batch_ns_per_op
            .iter()
            .zip(ops.chunks(SAMPLE_EVERY as usize))
            .map(|(ns, b)| ns * b.len() as f64)
            .sum()
    };
    let engine_ns = batch_total(plain) + plain.flush_ns as f64;

    // One request in 64 is timed on its own, by kind.
    for (kind, name) in [
        (Kind::EngineWrite, "lss.engine.write_ns_per_op"),
        (Kind::EngineRead, "lss.engine.read_ns_per_op"),
        (Kind::EngineTrim, "lss.engine.trim_ns_per_op"),
    ] {
        m.push(name, t.get(kind).net_mean_ns(timer_ns));
    }
    m.push("lss.engine.flush_all_ns", plain.flush_ns as f64);
    let mut per_op: Vec<u64> = plain.batch_ns_per_op.iter().map(|ns| *ns as u64).collect();
    per_op.sort_unstable();
    m.push("lss.engine.op_p50_ns", stats::percentile_sorted(&per_op, 0.5) as f64);
    m.push("lss.engine.op_p999_us", stats::percentile_sorted(&per_op, 0.999) as f64 / 1e3);

    let policy_ns = policy_metrics(m, &traced.trace, wall_ns, timer_ns);
    let sink_ns = sink_metrics(m, &traced.trace, wall_ns, timer_ns);
    let self_ns = engine_ns - policy_ns - sink_ns;
    m.push("lss.engine.self_ns_per_op", self_ns / ops.len() as f64);
    m.push("lss.engine.self_share", self_ns / wall_ns);
    m.push("lss.engine.gc_select_share", traced.gc_select_ns as f64 / wall_ns);
    counter_metrics(m, &traced.counters);
    m.push("bench.timer_ns", timer_ns);
    m.push("bench.trace_overhead_ratio", traced.wall_s / plain.wall_s);
    // What the batches do not cover: this loop's own bookkeeping.
    m.push("bench.unattributed_share", 1.0 - engine_ns / wall_ns);
}

pub const POLICY_KINDS: [Kind; 4] =
    [Kind::PolicyPlaceUser, Kind::PolicyPlaceGc, Kind::PolicySlaExpire, Kind::PolicyLifecycle];
pub const SINK_KINDS: [Kind; 3] = [Kind::SinkWrite, Kind::SinkRead, Kind::SinkSync];

/// Policy: every call counted, 1-in-64 (and all inside sampled ops) timed.
/// Returns the policy's estimated total time (ns).
pub fn policy_metrics(m: &mut Medians, c: &Collected, wall_ns: f64, timer_ns: f64) -> f64 {
    let t = &c.tallies;
    let names = [
        "core.policy.place_user_ns",
        "core.policy.place_gc_ns",
        "core.policy.sla_expire_ns",
        "core.policy.lifecycle_ns",
    ];
    for (kind, name) in POLICY_KINDS.iter().zip(names) {
        m.push(name, t.get(*kind).net_mean_ns(timer_ns));
    }
    m.push("core.policy.calls", t.sum(&POLICY_KINDS).calls as f64);
    let total: f64 = POLICY_KINDS.iter().map(|k| t.get(*k).net_total_ns(timer_ns)).sum();
    m.push("core.policy.busy_share", total / wall_ns);
    m.push(
        "core.policy.shadow_share",
        t.get(Kind::PolicyShadowAppend).calls as f64
            / t.get(Kind::PolicySlaExpire).calls.max(1) as f64,
    );
    total
}

/// Sink: every call timed. Returns the sink's total time (ns).
pub fn sink_metrics(m: &mut Medians, c: &Collected, wall_ns: f64, timer_ns: f64) -> f64 {
    let t = &c.tallies;
    let (w, r, s) = (t.get(Kind::SinkWrite), t.get(Kind::SinkRead), t.get(Kind::SinkSync));
    m.push("array.sink.write_calls", w.calls as f64);
    m.push("array.sink.write_ns_per_chunk", w.net_mean_ns(timer_ns));
    m.push("array.sink.read_calls", r.calls as f64);
    m.push("array.sink.read_ns_per_chunk", r.net_mean_ns(timer_ns));
    m.push("array.sink.sync_calls", s.calls as f64);
    m.push("array.sink.sync_ns_per_call", s.net_mean_ns(timer_ns));
    let busy = w.net_total_ns(timer_ns) + r.net_total_ns(timer_ns) + s.net_total_ns(timer_ns);
    m.push("array.sink.busy_share", busy / wall_ns);
    busy
}

/// The exact counts (†) every engine-backed workload reports.
pub fn counter_metrics(m: &mut Medians, c: &Counters) {
    m.push(
        "array.sink.copy_bytes_per_host_byte",
        c.sink_copy_bytes as f64 / c.host_write_bytes.max(1) as f64,
    );
    m.push("core.policy.mem_bytes", c.policy_mem_bytes as f64);
    m.push("lss.engine.gc_passes", c.gc_passes as f64);
    m.push("lss.engine.blocks_migrated", c.blocks_migrated as f64);
    m.push("lss.engine.segments_reclaimed", c.segments_reclaimed as f64);
    m.push("lss.engine.chunks_flushed", c.chunks_flushed as f64);
    m.push("lss.engine.padded_chunks", c.padded_chunks as f64);
    m.push("lss.engine.shadow_bytes", c.shadow_bytes as f64);
    let read_blocks = c.host_read_bytes / sut::BLOCK_BYTES;
    m.push("lss.engine.buffer_read_share", c.buffer_read_blocks as f64 / read_blocks.max(1) as f64);
    m.push(
        "lss.engine.index_bytes_per_block",
        (c.engine_mem_bytes - c.policy_mem_bytes) as f64 / c.user_blocks as f64,
    );
    m.push("lss.engine.mem_bytes_per_block", c.mem_bytes_per_block());
    m.push("lss.engine.pad_ratio", c.pad_ratio());
    m.push("lss.engine.read_amp", if c.host_read_bytes == 0 { 0.0 } else { c.read_amp() });
}

pub fn per_layer(spec: &Spec, p: &Params) -> (PerLayer, Vec<Span>) {
    let mut out = PerLayer::default();
    let mut m = Medians::default();
    let blocks = spec.scaled(p.quick).0;
    let t0 = Instant::now();
    let ops = spec.inputs(p);
    m.push("trace.gen_ns_per_rec", t0.elapsed().as_nanos() as f64 / ops.len() as f64);
    let timer_ns = spans::calibrate_timer_ns();

    let mut last_spans = Vec::new();
    let mut pairs = 0;
    let t0 = Instant::now();
    while pairs == 0 || (!p.quick && t0.elapsed().as_secs_f64() < p.seconds) {
        let plain = rep(&ops, spec.scheme, blocks, None);
        judge(&mut out.verdict, &plain, ops.len(), None);
        let ctx = Ctx::new();
        let mut traced = rep(&ops, spec.scheme, blocks, Some(&ctx));
        judge(&mut out.verdict, &traced, ops.len(), None);
        // The decorators are proven transparent on every run.
        out.verdict.check(plain.counters == traced.counters, || {
            format!(
                "traced repetition changed the counters: {:?} vs {:?}",
                plain.counters, traced.counters
            )
        });
        layer_metrics(&mut m, &ops, &plain, &traced, timer_ns);
        last_spans = std::mem::take(&mut traced.trace.spans);
        pairs += 1;
    }
    if spec.controls {
        // Same ops under the two baseline policies: a `core`-only change
        // must leave these unmoved.
        for (scheme, name) in [
            (Scheme::SepBit, "placement.sepbit.replay_kops"),
            (Scheme::SepGc, "placement.sepgc.replay_kops"),
        ] {
            let r = rep(&ops, scheme, blocks, None);
            judge(&mut out.verdict, &r, ops.len(), None);
            m.push(name, ops.len() as f64 / r.wall_s / 1e3);
        }
    }
    out.finish(m);
    out.info = info(spec, p, &ops);
    out.info.push(("traced_pairs".into(), Value::UInt(pairs)));
    (out, last_spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decorator transparency on a 10 k-op replay with reads, trims and
    /// SLA expiries: identical counters, and the trace has the shape the
    /// metrics rely on.
    #[test]
    fn decorators_are_transparent_on_a_10k_replay() {
        let spec = Spec { blocks: 4096, updates: 6000, ..SPARSE };
        let p = Params { seed: 7, seconds: 0.0, quick: false, out_dir: std::env::temp_dir() };
        let ops = spec.inputs(&p);
        assert!(ops.len() > 10_000);
        assert!(ops.iter().any(|o| o.kind == OpKind::Trim));
        let plain = rep(&ops, spec.scheme, 4096, None);
        let ctx = Ctx::new();
        let traced = rep(&ops, spec.scheme, 4096, Some(&ctx));
        assert_eq!(plain.problems, Vec::<String>::new());
        assert_eq!(traced.problems, Vec::<String>::new());
        assert_eq!(plain.counters, traced.counters);
        assert!(plain.counters.gc_passes > 0 && plain.counters.padded_chunks > 0);
        assert!(plain.trace.spans.is_empty());

        let t = &traced.trace.tallies;
        let batches = ops.len().div_ceil(SAMPLE_EVERY as usize) as u64;
        assert_eq!(t.get(Kind::EngineBatch).timed, batches);
        let sampled: u64 = [Kind::EngineWrite, Kind::EngineRead, Kind::EngineTrim]
            .iter()
            .map(|k| t.get(*k).timed)
            .sum();
        assert_eq!(sampled, batches);
        // Every sink write is a span; policy calls are all counted.
        assert_eq!(t.get(Kind::SinkWrite).calls, traced.counters.chunks_flushed);
        assert_eq!(t.get(Kind::SinkWrite).timed, traced.counters.chunks_flushed);
        let writes = ops.iter().filter(|o| o.kind == OpKind::Write).count() as u64;
        assert_eq!(t.get(Kind::PolicyPlaceUser).calls, writes);
        assert_eq!(t.get(Kind::PolicyPlaceUser).timed, writes.div_ceil(SAMPLE_EVERY));
        // Policy and sink spans lie inside the batch that caused them.
        let batches: std::collections::HashMap<u32, Span> = traced
            .trace
            .spans
            .iter()
            .filter(|s| s.kind == Kind::EngineBatch)
            .map(|s| (s.id, *s))
            .collect();
        let nested: Vec<_> =
            traced.trace.spans.iter().filter(|s| s.kind != Kind::EngineBatch).collect();
        assert!(nested.len() as u64 > traced.counters.chunks_flushed);
        for s in nested.iter().filter(|s| s.kind != Kind::EngineFlushAll && s.parent != 0) {
            let parent = batches[&s.parent];
            assert!(s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns);
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let spec = Spec { blocks: 1024, updates: 2048, ..SPARSE };
        let p = |seed| Params { seed, seconds: 0.0, quick: false, out_dir: std::env::temp_dir() };
        assert_eq!(spec.inputs(&p(1)), spec.inputs(&p(1)));
        assert_ne!(spec.inputs(&p(1)), spec.inputs(&p(2)));
    }
}

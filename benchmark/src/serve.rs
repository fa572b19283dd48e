//! `serve-mem` and `serve-durable`: one shard thread behind
//! `ServerBuilder`, one client thread (this one). Each repetition runs a
//! closed loop (ordered replay, 128 tickets in flight) for throughput and
//! an open loop (FIFO, fixed rate, each request timed from when it was
//! due) for latency. `serve-durable` puts a `FileArraySink` + WAL under
//! the same serve layer, and re-opens what the closed loop left on disk.

use crate::replay::{counter_metrics, policy_metrics, sink_metrics, POLICY_KINDS, SINK_KINDS};
use crate::report::{EndToEnd, Medians, PerLayer, Verdict};
use crate::spans::{self, Collected, Ctx, Kind, Span, SAMPLE_EVERY};
use crate::stats;
use crate::sut::{
    self, Arrival, Counters, Op, OpKind, ServeSpec, Served, Serving, Submitted, Ticket,
};
use crate::Params;
use serde::Value;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tickets the closed loop keeps in flight.
const IN_FLIGHT: usize = 128;
/// An open-loop rate passes when write p99 (timed from due, so a late
/// generator and `Busy` retries count) stays under this, nothing is lost
/// and the backlog did not grow.
const RATE_OK_P99_NS: u64 = 1_000_000;

pub struct Spec {
    blocks: u64,
    closed_ops: u64,
    read_ratio: f64,
    /// Zipf skew; `None` is uniform.
    zipf_alpha: Option<f64>,
    /// Fixed open-loop rate (requests/s) and how long it runs per repetition.
    open_rate: f64,
    open_secs: f64,
    prefill: bool,
    durable: bool,
}

/// Cold recoveries per durable repetition (`lss.recover.cold_ms` is their
/// median).
const RECOVERIES: usize = 3;

/// In-memory engines: a 256 Ki-block volume prefilled, zipf 0.9, 30 %
/// reads. The bare engine replays these ops several times faster than the
/// shard serves them, so `serve` (route, queue, ticket, group-commit
/// barrier, completion) takes most of the shard's time. The open loop
/// runs at 200 kops/s, far below closed-loop capacity.
pub const MEM: Spec = Spec {
    blocks: 256 * 1024,
    closed_ops: 1024 * 1024,
    read_ratio: 0.3,
    zipf_alpha: Some(0.9),
    open_rate: 200_000.0,
    open_secs: 0.5,
    prefill: true,
    durable: false,
};

/// File sink + WAL under the same serve layer: write-only, uniform, a
/// 64 Ki-block volume. `lss::wal` and `array::file_sink` dominate; the
/// serve layer does what it does in `serve-mem` and matters little — so
/// "serve got faster" and "durability got faster" show on different rows.
pub const DURABLE: Spec = Spec {
    blocks: 64 * 1024,
    closed_ops: 128 * 1024,
    read_ratio: 0.0,
    zipf_alpha: None,
    open_rate: 50_000.0,
    open_secs: 0.5,
    prefill: false,
    durable: true,
};

impl Spec {
    fn closed_ops(&self, p: &Params) -> usize {
        (if p.quick { self.closed_ops / 16 } else { self.closed_ops }) as usize
    }

    fn open_secs(&self, p: &Params) -> f64 {
        if p.quick {
            self.open_secs / 4.0
        } else {
            self.open_secs
        }
    }

    fn open_ops(&self, p: &Params) -> usize {
        (self.open_rate * self.open_secs(p)) as usize
    }

    /// `(closed-loop ops, open-loop ops)`, both from one seeded stream.
    fn inputs(&self, p: &Params) -> (Vec<Op>, Vec<Op>) {
        let total = (self.closed_ops(p) + self.open_ops(p)) as u64;
        let mut all = sut::ycsb_ops(
            self.blocks,
            total,
            self.zipf_alpha,
            self.read_ratio,
            Arrival::FixedGapUs(0),
            p.seed,
        );
        // Drop the generator's fill phase: `prefill` does that job.
        let mut closed = all.split_off(self.blocks as usize);
        let open = closed.split_off(self.closed_ops(p));
        (closed, open)
    }

    fn serve_spec(&self, ordered: bool, dir: Option<&TempDir>) -> ServeSpec {
        ServeSpec {
            blocks: self.blocks,
            ordered,
            prefill: self.prefill,
            durable_dir: dir.map(|d| d.0.clone()),
        }
    }
}

/// A scratch directory under `benchmark/out`, removed on drop — also
/// when a check fails or a repetition panics.
struct TempDir(PathBuf);

impl TempDir {
    fn new(p: &Params, durable: bool) -> Option<TempDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        durable.then(|| {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = p.out_dir.join(format!("tmp-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
            TempDir(dir)
        })
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------

struct Closed {
    wall_s: f64,
    ok: u64,
    errors: u64,
    busy_retries: u64,
    /// Newest acked version per LBA (durable completions only).
    acked: HashMap<u64, u64>,
    /// Client-side `(request, submit start, submit end)` of sampled requests.
    submits: Vec<(u32, u64, u64)>,
    problem: Option<String>,
}

fn closed_loop(srv: &Serving, ops: &[Op], ctx: Option<&Arc<Ctx>>) -> Closed {
    let mut c = Closed {
        wall_s: 0.0,
        ok: 0,
        errors: 0,
        busy_retries: 0,
        acked: HashMap::new(),
        submits: Vec::new(),
        problem: None,
    };
    let mut inflight: VecDeque<Ticket> = VecDeque::with_capacity(IN_FLIGHT);
    let tally = |c: &mut Closed, d: sut::Done| {
        if d.ok {
            c.ok += 1;
            if d.durable {
                let v = c.acked.entry(d.lba).or_insert(0);
                *v = (*v).max(d.version);
            }
        } else {
            c.errors += 1;
        }
    };
    let t0 = Instant::now();
    'ops: for (i, op) in ops.iter().enumerate() {
        let sampled = ctx.filter(|_| (i as u64).is_multiple_of(SAMPLE_EVERY));
        let s0 = sampled.map(|x| x.now_ns());
        let ticket = loop {
            match srv.submit(op, Some(i as u64)) {
                Submitted::Accepted(t) => break t,
                Submitted::Busy => {
                    c.busy_retries += 1;
                    // A full queue usually means completions are ready.
                    while let Some(d) = inflight.front().and_then(Ticket::poll) {
                        inflight.pop_front();
                        tally(&mut c, d);
                    }
                    std::thread::yield_now();
                }
                Submitted::Rejected(e) => {
                    // Ordered replay cannot skip a sequence number.
                    c.problem = Some(format!("submit {i} rejected: {e}"));
                    break 'ops;
                }
            }
        };
        if let (Some(x), Some(s0)) = (sampled, s0) {
            c.submits.push((i as u32, s0, x.now_ns()));
        }
        inflight.push_back(ticket);
        if inflight.len() >= IN_FLIGHT {
            let d = srv.wait(inflight.pop_front().expect("non-empty"));
            tally(&mut c, d);
        }
    }
    for t in inflight {
        let d = srv.wait(t);
        tally(&mut c, d);
    }
    c.wall_s = t0.elapsed().as_secs_f64();
    c
}

// ---------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------

/// When request `i` of a fixed-rate schedule is due, in ns from the start.
pub fn due_ns(i: usize, rate_per_s: f64) -> u64 {
    (i as f64 * 1e9 / rate_per_s) as u64
}

#[derive(Default)]
struct Open {
    write_ns: Vec<u64>,
    read_ns: Vec<u64>,
    /// `Busy` answers. The request stays due and is offered again after
    /// the next harvest; the wait is charged to its latency.
    busy_retries: u64,
    errors: u64,
    /// Accepted but not completed when the grace period ran out.
    lost: u64,
    /// How late the generator ran at worst (submit time − due time).
    gen_lag_max_ns: u64,
    /// Requests in flight when the last one was submitted.
    backlog_at_end: usize,
    /// `(accepted ordinal, due, submit start, submit end, observed)` of
    /// sampled requests, ns on the trace clock.
    sampled: Vec<(u32, u64, u64, u64, u64)>,
}

struct Pending {
    ticket: Ticket,
    due_ns: u64,
    is_write: bool,
    /// Index into `Open::sampled`, for sampled requests.
    sample: Option<usize>,
}

/// Submit `ops` on the fixed schedule whatever the server does; harvest
/// completions with `Ticket::poll`; time each request from when it was
/// *due*, so a stall is charged to every request it delays.
fn open_loop(srv: &Serving, ops: &[Op], rate: f64, ctx: Option<&Arc<Ctx>>) -> Open {
    let mut o = Open::default();
    let mut pending: Vec<Pending> = Vec::with_capacity(256);
    let mut next = 0usize;
    let mut accepted = 0u64;
    let grace_ns = due_ns(ops.len(), rate) + 2_000_000_000;
    // The trace clock and the schedule clock share an origin offset.
    let t0 = Instant::now();
    let base_ns = ctx.map_or(0, |c| c.ns_of(t0));
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        while next < ops.len() && due_ns(next, rate) <= now {
            let due = due_ns(next, rate);
            let s0 = t0.elapsed().as_nanos() as u64;
            o.gen_lag_max_ns = o.gen_lag_max_ns.max(s0 - due);
            match srv.submit(&ops[next], None) {
                Submitted::Accepted(ticket) => {
                    let sample = ctx.filter(|_| accepted.is_multiple_of(SAMPLE_EVERY)).map(|_| {
                        let s1 = t0.elapsed().as_nanos() as u64;
                        o.sampled.push((
                            accepted as u32,
                            base_ns + due,
                            base_ns + s0,
                            base_ns + s1,
                            0,
                        ));
                        o.sampled.len() - 1
                    });
                    accepted += 1;
                    pending.push(Pending {
                        ticket,
                        due_ns: due,
                        is_write: ops[next].kind != OpKind::Read,
                        sample,
                    });
                }
                Submitted::Busy => {
                    o.busy_retries += 1;
                    break;
                }
                Submitted::Rejected(_) => o.errors += 1,
            }
            next += 1;
            if next == ops.len() {
                o.backlog_at_end = pending.len();
            }
        }
        let mut i = 0;
        while i < pending.len() {
            match pending[i].ticket.poll() {
                Some(d) => {
                    let seen = t0.elapsed().as_nanos() as u64;
                    let p = pending.swap_remove(i);
                    if !d.ok {
                        o.errors += 1;
                    } else if p.is_write {
                        o.write_ns.push(seen - p.due_ns);
                    } else {
                        o.read_ns.push(seen - p.due_ns);
                    }
                    if let Some(s) = p.sample {
                        o.sampled[s].4 = base_ns + seen;
                    }
                }
                None => i += 1,
            }
        }
        if next == ops.len() && pending.is_empty() {
            break;
        }
        if now > grace_ns {
            o.lost = pending.len() as u64;
            break;
        }
    }
    o.write_ns.sort_unstable();
    o.read_ns.sort_unstable();
    o
}

impl Open {
    fn failed(&self) -> u64 {
        self.errors + self.lost
    }

    /// p50 of write latency; reads where the workload has no writes.
    fn p50_us(&self) -> f64 {
        let v = if self.write_ns.is_empty() { &self.read_ns } else { &self.write_ns };
        stats::percentile_sorted(v, 0.5) as f64 / 1e3
    }
}

// ---------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------

struct Rep {
    closed: Closed,
    closed_served: Served,
    open: Open,
    open_served: Served,
    open_ctx: Option<Arc<Ctx>>,
    recover_ms: Vec<f64>,
    checkpoint_ms: f64,
    recovered: (u64, u64),
    problems: Vec<String>,
    lost_acks: u64,
}

fn rep(
    spec: &Spec,
    p: &Params,
    closed_ops: &[Op],
    open_ops: &[Op],
    traced: bool,
) -> Result<Rep, String> {
    let mut problems = Vec::new();

    // Phase A: closed loop on an ordered server.
    let dir = TempDir::new(p, spec.durable);
    let serve_spec = spec.serve_spec(true, dir.as_ref());
    let ctx = traced.then(Ctx::new);
    let srv = Serving::start(&serve_spec, ctx.as_ref())?;
    let closed = closed_loop(&srv, closed_ops, ctx.as_ref());
    let closed_served = srv.finish();
    problems.extend(closed.problem.clone());

    // Re-open what phase A left on disk, cold, several times.
    let mut recover_ms = Vec::new();
    let mut checkpoint_ms = 0.0;
    let mut recovered = (0, 0);
    let mut lost_acks = 0;
    let recoveries = match (spec.durable, p.quick) {
        (false, _) => 0,
        (true, true) => 1,
        (true, false) => RECOVERIES,
    };
    for k in 0..recoveries {
        let t0 = Instant::now();
        let mut r = sut::recover(&serve_spec)?;
        recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if k == 0 {
            recovered = (r.records_applied, r.flushes_replayed);
            // Every acked write must be there at (at least) its version.
            lost_acks = closed
                .acked
                .iter()
                .filter(|(lba, version)| r.durable_version(**lba).is_none_or(|v| v < **version))
                .count() as u64;
            problems.extend(r.verify());
        } else if k + 1 == recoveries {
            // After the last cold recovery: the state may change now.
            checkpoint_ms = r.checkpoint_ms()?;
        }
    }
    if lost_acks > 0 {
        problems.push(format!("{lost_acks} acked writes lost after recovery"));
    }
    drop(dir);

    // Phase B: open loop on a FIFO server.
    let dir = TempDir::new(p, spec.durable);
    let open_ctx = traced.then(Ctx::new);
    let srv = Serving::start(&spec.serve_spec(false, dir.as_ref()), open_ctx.as_ref())?;
    let open = open_loop(&srv, open_ops, spec.open_rate, open_ctx.as_ref());
    let open_served = srv.finish();

    for (phase, s, want) in [
        ("closed", &closed_served, closed_ops.len() as u64),
        ("open", &open_served, open_ops.len() as u64),
    ] {
        if !s.balanced {
            problems.push(format!("{phase} loop: queue accounting unbalanced"));
        }
        if s.any_failed {
            problems.push(format!("{phase} loop: shard fail-stopped"));
        }
        if s.completed != want || s.failed_ops != 0 {
            problems.push(format!(
                "{phase} loop: {} completions ({} failed) for {want} accepted requests",
                s.completed, s.failed_ops
            ));
        }
        problems.extend(s.counters.sink_mismatch().map(|m| format!("{phase} loop: {m}")));
    }
    if closed.ok != closed_ops.len() as u64 {
        problems.push(format!(
            "closed loop: {} of {} requests completed ok",
            closed.ok,
            closed_ops.len()
        ));
    }
    Ok(Rep {
        closed,
        closed_served,
        open,
        open_served,
        open_ctx,
        recover_ms,
        checkpoint_ms,
        recovered,
        problems,
        lost_acks,
    })
}

fn judge(v: &mut Verdict, r: &Rep, closed_ops: usize, open_ops: usize) {
    v.attempted += (closed_ops + open_ops) as u64;
    v.failed += r.closed.errors + r.open.failed() + r.lost_acks;
    for p in &r.problems {
        v.fail(p.clone());
    }
    v.check(r.problems.is_empty(), || "output checks".into());
}

fn info(spec: &Spec, p: &Params, write_samples: usize) -> Vec<(String, Value)> {
    vec![
        ("user_blocks".into(), Value::UInt(spec.blocks)),
        ("closed_loop".into(), Value::Str(format!("1 client thread, {IN_FLIGHT} tickets in flight, ordered replay, {} requests", spec.closed_ops(p)))),
        ("open_loop".into(), Value::Str(format!("FIFO, fixed {} kops/s for {} s, timed from when each request was due", spec.open_rate / 1e3, spec.open_secs(p)))),
        ("latency_is".into(), Value::Str("p50 of open-loop write latency (due -> completion seen by Ticket::poll); the sandbox's, not a device's".into())),
        ("latency_samples_per_rep".into(), Value::UInt(write_samples as u64)),
        ("wa_is".into(), Value::Str("LssMetrics::wa() of the closed-loop phase".into())),
    ]
}

pub fn end_to_end(spec: &Spec, p: &Params) -> EndToEnd {
    let mut out = EndToEnd::default();
    let (mut closed_ops, mut open_ops) = (Vec::new(), Vec::new());
    for _ in 0..p.setups() {
        // Set-up: generate the requests, start (and stop) a prefilled server.
        let t0 = Instant::now();
        (closed_ops, open_ops) = spec.inputs(p);
        let dir = TempDir::new(p, spec.durable);
        match Serving::start(&spec.serve_spec(true, dir.as_ref()), None) {
            Ok(srv) => drop(srv.finish()),
            Err(e) => out.verdict.fail(e),
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut reference: Option<(Counters, u64)> = None;
    let mut write_samples = 0;
    let mut warm = p.quick;
    let mut t0 = Instant::now();
    while out.throughput_kops.len() < p.min_reps() || t0.elapsed().as_secs_f64() < p.seconds {
        let r = match rep(spec, p, &closed_ops, &open_ops, false) {
            Ok(r) => r,
            Err(e) => {
                out.verdict.fail(e);
                break;
            }
        };
        let key = (r.closed_served.counters.clone(), r.closed_served.telemetry_fnv);
        if !warm {
            // Warm-up repetition: discarded, but it fixes the reference.
            warm = true;
            reference = Some(key);
            t0 = Instant::now();
            continue;
        }
        judge(&mut out.verdict, &r, closed_ops.len(), open_ops.len());
        // Ordered replay is deterministic: identical counters and
        // telemetry fingerprint across the closed-loop repetitions.
        let same = reference.get_or_insert_with(|| key.clone()) == &key;
        out.verdict.check(same, || "closed-loop telemetry differs between repetitions".into());
        out.throughput_kops.push(closed_ops.len() as f64 / r.closed.wall_s / 1e3);
        out.latency_p50_us.push(r.open.p50_us());
        out.wa = r.closed_served.counters.wa();
        write_samples = r.open.write_ns.len();
        if p.quick {
            break;
        }
    }
    out.info = info(spec, p, write_samples);
    out
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// Join the client's and the shard's records of every sampled open-loop
/// request into one chain under one id:
/// `client.submit → shard.queue_wait → engine apply → shard.commit_wait →
/// client.complete`. Returns the spans plus queue and commit waits (ns).
pub fn request_chains(
    sampled: &[(u32, u64, u64, u64, u64)],
    shard: &[Span],
    mut next_id: impl FnMut() -> u32,
) -> (Vec<Span>, Vec<u64>, Vec<u64>) {
    let applies: HashMap<u32, &Span> = shard
        .iter()
        .filter(|s| matches!(s.kind, Kind::EngineWrite | Kind::EngineRead | Kind::EngineTrim))
        .map(|s| (s.req, s))
        .collect();
    let mut syncs: Vec<u64> =
        shard.iter().filter(|s| s.kind == Kind::ShardSync).map(|s| s.end_ns).collect();
    syncs.sort_unstable();
    let (mut out, mut queue, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    for &(req, _due, s0, s1, seen) in sampled {
        let Some(apply) = applies.get(&req) else { continue };
        if seen == 0 {
            continue; // never completed
        }
        let root = next_id();
        let mut push = |out: &mut Vec<Span>, kind, start_ns: u64, end_ns: u64| {
            // The two threads' clock reads can cross by a few ns.
            let end_ns = end_ns.max(start_ns);
            out.push(Span { kind, id: next_id(), parent: root, req, start_ns, end_ns });
            end_ns
        };
        let t = push(&mut out, Kind::ClientSubmit, s0, s1);
        let t = push(&mut out, Kind::ShardQueueWait, t, apply.start_ns);
        queue.push(apply.start_ns.saturating_sub(s1));
        out.push(Span { parent: root, ..**apply });
        let mut t = t.max(apply.end_ns);
        if apply.kind != Kind::EngineRead {
            // A write is acked by the first barrier that ends after it.
            let at = syncs.partition_point(|&e| e < apply.end_ns);
            if let Some(&sync_end) = syncs.get(at) {
                commit.push(sync_end - apply.end_ns);
                t = push(&mut out, Kind::ShardCommitWait, t, sync_end);
            }
        }
        push(&mut out, Kind::ClientComplete, t, seen);
        out.push(Span {
            kind: Kind::Request,
            id: root,
            parent: 0,
            req,
            start_ns: s0,
            end_ns: seen.max(s0),
        });
    }
    (out, queue, commit)
}

fn p50(v: &mut [u64]) -> f64 {
    v.sort_unstable();
    stats::percentile_sorted(v, 0.5) as f64
}

/// Shard- and engine-side numbers of the traced closed loop.
fn closed_metrics(m: &mut Medians, plain: &Rep, traced: &Rep, ops: &[Op], timer_ns: f64) {
    let s = &traced.closed_served;
    let Some(trace) = &s.trace else { return };
    let c: &Collected = &trace.collected;
    let t = &c.tallies;
    let n = s.applied_ops.max(1) as f64;
    // Net times are set against the untraced closed loop's wall.
    let wall_ns = plain.closed.wall_s * 1e9;

    // Every timed call on the shard thread costs two clock reads of busy
    // time; one of them is inside the call's own interval, and the reads
    // of nested policy and sink calls are inside the applies.
    let applies = [Kind::EngineWrite, Kind::EngineRead, Kind::EngineTrim];
    let nested = t.sum(&POLICY_KINDS).timed + t.sum(&SINK_KINDS).timed;
    let (sync, gc, probe, flush) = (
        t.get(Kind::ShardSync),
        t.get(Kind::ShardGcStep),
        t.get(Kind::ShardProbe),
        t.get(Kind::ShardFlushAll),
    );
    let apply_calls = t.sum(&applies).timed;
    let shard_calls = apply_calls + sync.timed + gc.timed + probe.timed + flush.timed;
    let busy = s.busy_ns as f64 - 2.0 * timer_ns * (shard_calls + nested) as f64;
    let engine_ns =
        spans::net_outer_ns(&t.sum(&applies), nested, timer_ns) + flush.net_total_ns(timer_ns);
    let others =
        sync.net_total_ns(timer_ns) + gc.net_total_ns(timer_ns) + probe.net_total_ns(timer_ns);
    let self_ns = busy - engine_ns - others;
    m.push("serve.shard.busy_ns_per_op", busy / n);
    m.push("serve.shard.engine_ns_per_op", engine_ns / n);
    m.push("serve.shard.sync_ns_per_op", sync.net_total_ns(timer_ns) / n);
    m.push("serve.shard.gc_ns_per_op", gc.net_total_ns(timer_ns) / n);
    m.push("serve.shard.probe_ns_per_op", probe.net_total_ns(timer_ns) / n);
    m.push("serve.shard.self_ns_per_op", self_ns / n);
    m.push("serve.shard.self_share", self_ns / busy);
    let idle = 1.0 - s.busy_ns as f64 / (traced.closed.wall_s * 1e9);
    m.push("serve.shard.idle_share", idle);
    // The shard probes before and after every fused run, every idle GC
    // step and the shutdown flush.
    let runs = (probe.calls.saturating_sub(2 * s.gc_steps + 2) / 2).max(1);
    m.push("serve.shard.ops_per_apply", n / runs as f64);
    let writes = ops.iter().filter(|o| o.kind != OpKind::Read).count() as f64;
    m.push("serve.shard.ops_per_sync", writes / s.syncs.max(1) as f64);

    // Engine ops as the shard sees them: every apply is timed.
    for (kind, name) in [
        (Kind::EngineWrite, "lss.engine.write_ns_per_op"),
        (Kind::EngineRead, "lss.engine.read_ns_per_op"),
        (Kind::EngineTrim, "lss.engine.trim_ns_per_op"),
    ] {
        m.push(name, t.get(kind).net_mean_ns(timer_ns));
    }
    m.push("lss.engine.flush_all_ns", flush.net_total_ns(timer_ns));
    let mut durs: Vec<u64> =
        c.spans.iter().filter(|sp| applies.contains(&sp.kind)).map(Span::dur_ns).collect();
    durs.sort_unstable();
    m.push(
        "lss.engine.op_p50_ns",
        (stats::percentile_sorted(&durs, 0.5) as f64 - timer_ns).max(0.0),
    );
    m.push("lss.engine.op_p999_us", stats::percentile_sorted(&durs, 0.999) as f64 / 1e3);
    let policy_ns = policy_metrics(m, c, wall_ns, timer_ns);
    let sink_ns = sink_metrics(m, c, wall_ns, timer_ns);
    let engine_self = engine_ns - policy_ns - sink_ns;
    m.push("lss.engine.self_ns_per_op", engine_self / n);
    m.push("lss.engine.self_share", engine_self / wall_ns);
    m.push("lss.engine.gc_select_share", trace.gc_select_ns as f64 / wall_ns);
    counter_metrics(m, &s.counters);
    if let Some((records, bytes, syncs, checkpoints)) = trace.wal {
        m.push("lss.wal.records_appended", records as f64);
        m.push(
            "lss.wal.bytes_per_host_byte",
            bytes as f64 / s.counters.host_write_bytes.max(1) as f64,
        );
        m.push("lss.wal.syncs", syncs as f64);
        m.push("lss.wal.checkpoints", checkpoints as f64);
    }
    m.push("serve.client.submit_ns", {
        let v = &traced.closed.submits;
        v.iter().map(|(_, a, b)| (b - a) as f64).sum::<f64>() / v.len().max(1) as f64
    });
    m.push(
        "serve.client.busy_rejects",
        (traced.closed.busy_retries + traced.open.busy_retries) as f64,
    );
    m.push("bench.trace_overhead_ratio", traced.closed.wall_s / plain.closed.wall_s);
    // The closed-loop wall the shard spent neither busy nor in a traced call.
    m.push("bench.unattributed_share", idle);
}

/// Client-side numbers of the traced open loop, and its request chains.
fn open_metrics(m: &mut Medians, r: &Rep) -> Vec<Span> {
    let o = &r.open;
    m.push("serve.client.write_p99_us", stats::percentile_sorted(&o.write_ns, 0.99) as f64 / 1e3);
    if let Some((pct, v)) = stats::tail_sorted(&o.write_ns) {
        m.push("serve.client.write_ptail_us", v as f64 / 1e3);
        m.push("serve.client.write_ptail_pct", pct * 100.0);
    }
    m.push("serve.client.write_samples", o.write_ns.len() as f64);
    m.push("serve.client.read_p50_us", stats::percentile_sorted(&o.read_ns, 0.5) as f64 / 1e3);
    m.push("serve.client.gen_lag_max_us", o.gen_lag_max_ns as f64 / 1e3);
    let (Some(trace), Some(ctx)) = (&r.open_served.trace, &r.open_ctx) else { return Vec::new() };
    let (chains, mut queue, mut commit) =
        request_chains(&o.sampled, &trace.collected.spans, || ctx.alloc_id());
    m.push("serve.shard.queue_wait_p50_us", p50(&mut queue) / 1e3);
    m.push("serve.shard.commit_wait_p50_us", p50(&mut commit) / 1e3);
    chains
}

/// Round trips at depth 1: submit, wait, repeat.
fn rtt_p50_us(spec: &Spec, p: &Params, ops: &[Op]) -> Result<f64, String> {
    let dir = TempDir::new(p, spec.durable);
    let srv = Serving::start(&spec.serve_spec(false, dir.as_ref()), None)?;
    let n = if p.quick { 1_000 } else { 10_000 };
    let mut ns = Vec::with_capacity(n);
    for op in ops.iter().cycle().take(n) {
        let t0 = Instant::now();
        if let Submitted::Accepted(t) = srv.submit(op, None) {
            srv.wait(t);
            ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    srv.finish();
    Ok(p50(&mut ns) / 1e3)
}

/// The highest of 1×, 2×, 4× the workload's open-loop rate that the
/// server sustains: write p99 within the limit, nothing lost, backlog
/// bounded. 0 when not even 1× passes.
fn rate_ok_kops(spec: &Spec, p: &Params, ops: &[Op]) -> Result<f64, String> {
    let mut best = 0.0;
    for mult in [1.0, 2.0, 4.0] {
        let rate = spec.open_rate * mult;
        let n = (rate * spec.open_secs(p)) as usize;
        let schedule: Vec<Op> = ops.iter().cycle().take(n).copied().collect();
        let dir = TempDir::new(p, spec.durable);
        let srv = Serving::start(&spec.serve_spec(false, dir.as_ref()), None)?;
        let o = open_loop(&srv, &schedule, rate, None);
        srv.finish();
        let lat = if o.write_ns.is_empty() { &o.read_ns } else { &o.write_ns };
        let ok = o.failed() == 0
            && stats::percentile_sorted(lat, 0.99) <= RATE_OK_P99_NS
            && o.backlog_at_end <= IN_FLIGHT;
        if !ok {
            break;
        }
        best = rate / 1e3;
    }
    Ok(best)
}

pub fn per_layer(spec: &Spec, p: &Params) -> (PerLayer, Vec<Span>) {
    let mut out = PerLayer::default();
    let mut m = Medians::default();
    let t0 = Instant::now();
    let (closed_ops, open_ops) = spec.inputs(p);
    m.push(
        "trace.gen_ns_per_rec",
        t0.elapsed().as_nanos() as f64
            / (spec.blocks as usize + closed_ops.len() + open_ops.len()) as f64,
    );
    let timer_ns = spans::calibrate_timer_ns();
    m.push("bench.timer_ns", timer_ns);
    m.push("serve.router.locate_ns", sut::router_locate_ns(spec.blocks));
    m.push("serve.qos.admit_ns", sut::qos_admit_ns());
    let direct = (|| {
        m.push("serve.client.rtt_p50_us", rtt_p50_us(spec, p, &open_ops)?);
        m.push("serve.client.rate_ok_kops", rate_ok_kops(spec, p, &open_ops)?);
        if let Some(dir) = TempDir::new(p, spec.durable) {
            let (append_ns, replay_per_s) =
                sut::wal_direct(&dir.0, if p.quick { 4_096 } else { 65_536 })?;
            m.push("lss.wal.append_commit_ns_per_rec", append_ns);
            m.push("lss.wal.replay_krecs_per_s", replay_per_s / 1e3);
        }
        Ok::<(), String>(())
    })();
    if let Err(e) = direct {
        out.verdict.fail(e);
    }

    let mut last_spans = Vec::new();
    let mut pairs = 0;
    let t0 = Instant::now();
    while pairs == 0 || (!p.quick && t0.elapsed().as_secs_f64() < p.seconds) {
        let both = rep(spec, p, &closed_ops, &open_ops, false)
            .and_then(|plain| Ok((plain, rep(spec, p, &closed_ops, &open_ops, true)?)));
        let (plain, mut traced) = match both {
            Ok(x) => x,
            Err(e) => {
                out.verdict.fail(e);
                break;
            }
        };
        judge(&mut out.verdict, &plain, closed_ops.len(), open_ops.len());
        judge(&mut out.verdict, &traced, closed_ops.len(), open_ops.len());
        // The decorators are proven transparent on every run.
        let same = plain.closed_served.counters == traced.closed_served.counters
            && plain.closed_served.telemetry_fnv == traced.closed_served.telemetry_fnv;
        out.verdict.check(same, || {
            format!(
                "traced closed loop changed the telemetry: {:?} vs {:?}",
                plain.closed_served.counters, traced.closed_served.counters
            )
        });
        closed_metrics(&mut m, &plain, &traced, &closed_ops, timer_ns);
        if !traced.recover_ms.is_empty() {
            m.push("lss.recover.cold_ms", stats::median(&mut traced.recover_ms.clone()));
            m.push("lss.wal.checkpoint_ms", traced.checkpoint_ms);
            m.push("lss.recover.records_applied", traced.recovered.0 as f64);
            m.push("lss.recover.flushes_replayed", traced.recovered.1 as f64);
        }
        last_spans = open_metrics(&mut m, &traced);
        if let Some(t) = traced.open_served.trace.as_mut() {
            last_spans.append(&mut t.collected.spans);
        }
        pairs += 1;
    }
    out.finish(m);
    out.info = info(
        spec,
        p,
        out.metrics.get("serve.client.write_samples").copied().unwrap_or(0.0) as usize,
    );
    out.info.push(("traced_pairs".into(), Value::UInt(pairs)));
    out.info.push((
        "trace_file_is".into(),
        Value::Str("the open-loop phase of the last traced repetition".into()),
    ));
    (out, last_spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::NO_REQ;

    #[test]
    fn schedule_is_evenly_spaced_and_lateness_is_charged_from_due_time() {
        // 200 kops/s: one request every 5 µs.
        assert_eq!(due_ns(0, 200_000.0), 0);
        assert_eq!(due_ns(1, 200_000.0), 5_000);
        assert_eq!(due_ns(200_000, 200_000.0), 1_000_000_000);
        // A request due at 5 µs, submitted at 9 µs after a stall and seen
        // complete at 30 µs has latency 25 µs, not 21: the stall counts.
        let (due, submitted, seen) = (due_ns(1, 200_000.0), 9_000u64, 30_000u64);
        assert_eq!(seen - due, 25_000);
        assert_eq!(submitted - due, 4_000); // what gen_lag_max would record
    }

    #[test]
    fn open_loop_accounts_for_every_request() {
        let p = Params { seed: 3, seconds: 0.0, quick: true, out_dir: std::env::temp_dir() };
        let spec = Spec { blocks: 8 * 1024, prefill: false, ..MEM };
        let (_, open_ops) = spec.inputs(&p);
        let srv = Serving::start(&spec.serve_spec(false, None), None).unwrap();
        let o = open_loop(&srv, &open_ops, 50_000.0, None);
        let served = srv.finish();
        assert_eq!(o.write_ns.len() + o.read_ns.len() + o.failed() as usize, open_ops.len());
        assert_eq!(o.failed(), 0);
        assert!(served.balanced && !served.any_failed);
        assert_eq!(served.completed, open_ops.len() as u64);
        assert!(o.write_ns.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn chains_join_client_and_shard_records_by_request() {
        let sp =
            |kind, req, start_ns, end_ns| Span { kind, id: 0, parent: 0, req, start_ns, end_ns };
        let shard = [
            sp(Kind::EngineWrite, 0, 120, 150),
            sp(Kind::ShardSync, NO_REQ, 100, 110), // ended before the apply
            sp(Kind::ShardSync, NO_REQ, 160, 200),
            sp(Kind::EngineRead, 64, 300, 320),
        ];
        // (request, due, submit start, submit end, seen)
        let sampled = [(0, 90, 100, 105, 230), (64, 280, 281, 290, 340), (128, 0, 0, 0, 0)];
        let mut id = 0;
        let (chain, queue, commit) = request_chains(&sampled, &shard, || {
            id += 1;
            id
        });
        assert_eq!(queue, vec![15, 10]);
        assert_eq!(commit, vec![50]); // write acked by the barrier ending at 200
        let of = |req: u32, kind| chain.iter().find(|s| s.req == req && s.kind == kind).copied();
        let root = of(0, Kind::Request).unwrap();
        assert_eq!((root.start_ns, root.end_ns, root.parent), (100, 230, 0));
        let kids: Vec<_> = chain.iter().filter(|s| s.parent == root.id).collect();
        assert_eq!(kids.len(), 5);
        // Contiguous: each child starts where the previous one ended.
        assert_eq!(of(0, Kind::ShardQueueWait).map(|s| (s.start_ns, s.end_ns)), Some((105, 120)));
        assert_eq!(of(0, Kind::ShardCommitWait).map(|s| (s.start_ns, s.end_ns)), Some((150, 200)));
        assert_eq!(of(0, Kind::ClientComplete).map(|s| (s.start_ns, s.end_ns)), Some((200, 230)));
        // A read has no commit wait; it completes after its apply.
        assert_eq!(of(64, Kind::ShardCommitWait), None);
        assert_eq!(of(64, Kind::ClientComplete).map(|s| (s.start_ns, s.end_ns)), Some((320, 340)));
        // The request that never completed has no chain.
        assert_eq!(of(128, Kind::Request), None);
        // The children cover the root without a gap.
        let covered: u64 = kids.iter().map(|s| s.dur_ns()).sum();
        assert_eq!(covered, root.dur_ns());
    }
}

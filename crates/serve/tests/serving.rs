//! End-to-end serving tests: real engines (SepGC over in-memory or
//! file-backed arrays) behind the sharded async API.

use adapt_array::{CountingArray, FileArraySink, FileSinkOptions};
use adapt_lss::{DurabilityConfig, EngineError, FsyncPolicy, Lss, Retryable, TelemetrySnapshot};
use adapt_placement::SepGc;
use adapt_serve::shard::Probe;
use adapt_serve::{
    Request, ServeError, ServerBuilder, ShardEngine, ShardRouter, SubmitError, TenantId, VolumeSpec,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// Deterministic LBA scatter (splitmix64).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mem_builder() -> ServerBuilder {
    ServerBuilder::new().volume(0, 8 * 1024).volume(1, 4 * 1024).range_blocks(512)
}

fn mem_factory(plan: &adapt_serve::ShardPlan) -> Box<dyn adapt_serve::ShardEngine> {
    let sink = CountingArray::new(plan.lss.array_config());
    Box::new(Lss::builder(SepGc::new(), sink).config(plan.lss).build())
}

#[test]
fn mixed_ops_complete_across_shards() {
    let server = mem_builder().shards(4).start(mem_factory);
    let client = server.client();
    let mut tickets = Vec::new();
    for i in 0..6000u64 {
        let r = mix(i ^ 0xA11CE);
        let (volume, cap) = if r.is_multiple_of(3) { (1, 4 * 1024) } else { (0, 8 * 1024) };
        let lba = mix(r) % cap;
        let req = match r % 23 {
            0 => Request::trim(0, volume, lba, 1),
            1..=5 => Request::read(0, volume, lba, 1),
            _ => Request::write(0, volume, lba, 1),
        };
        tickets.push(client.submit_backoff(req).expect("valid request"));
    }
    let mut by_shard = [0u64; 4];
    for t in tickets {
        let c = client.wait(t);
        assert_eq!(c.result, Ok(()), "op failed: {c:?}");
        by_shard[c.shard as usize] += 1;
    }
    assert!(by_shard.iter().all(|&n| n > 0), "all shards served traffic: {by_shard:?}");
    let live = client.merged_telemetry();
    assert_eq!(live.host_ops, 6000, "every op reached an engine");
    let report = server.shutdown();
    assert!(report.balanced(), "lost completions: {:?}", report.shards);
    assert!(!report.any_failed());
    assert_eq!(report.merged_telemetry().host_ops, 6000);
    // Per-volume attribution covers both volumes and sums to the host
    // write traffic.
    let per_volume = report.per_volume();
    assert_eq!(per_volume.len(), 2);
    let attributed: u64 = per_volume.iter().map(|(_, m)| m.host_write_bytes).sum();
    assert_eq!(attributed, report.merged_telemetry().lss.host_write_bytes);
}

#[test]
fn busy_backpressure_is_typed_and_lossless() {
    let server = mem_builder().shards(1).queue_depth(8).group_commit_window(4).start(mem_factory);
    let client = server.client();
    let mut accepted = Vec::new();
    let mut busy = 0u64;
    for i in 0..2000u64 {
        match client.submit(Request::write(0, 0, mix(i) % 8192, 1)) {
            Ok(t) => accepted.push(t),
            Err(e @ SubmitError::Busy { depth, .. }) => {
                assert_eq!(depth, 8);
                assert!(e.is_retryable());
                busy += 1;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(busy > 0, "a depth-8 queue must reject a 2000-op burst");
    for t in accepted {
        assert!(client.wait(t).result.is_ok());
    }
    let report = server.shutdown();
    assert!(report.balanced());
    assert_eq!(report.shards[0].stats.rejected_busy, busy);
}

#[test]
fn tenant_throttling_enforces_weights() {
    let server = mem_builder()
        .shards(2)
        .qos(adapt_serve::QosConfig { refill_per_op: 0.1, burst_ops: 4.0 })
        .tenant_weight(1, 3.0)
        .tenant_weight(2, 1.0)
        .start(mem_factory);
    let client = server.client();
    let mut admitted: HashMap<TenantId, u64> = HashMap::new();
    let mut throttled = 0u64;
    let mut tickets = Vec::new();
    for i in 0..4000u64 {
        for tenant in [1, 2] {
            let req = Request::write(tenant, 0, mix(i ^ u64::from(tenant)) % 8192, 1);
            match client.submit(req) {
                Ok(t) => {
                    *admitted.entry(tenant).or_default() += 1;
                    tickets.push(t);
                }
                Err(SubmitError::TenantThrottled { tenant: t }) => {
                    assert_eq!(t, tenant);
                    throttled += 1;
                }
                Err(SubmitError::Busy { .. }) => {}
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
    }
    assert!(throttled > 0, "tight buckets must throttle");
    let ratio = admitted[&1] as f64 / admitted[&2] as f64;
    assert!((2.0..=4.5).contains(&ratio), "weight-3 vs weight-1 admission ratio {ratio}");
    for t in tickets {
        assert!(client.wait(t).result.is_ok());
    }
    assert!(server.shutdown().balanced());
}

#[test]
fn validation_errors_are_synchronous_and_typed() {
    let server = mem_builder().shards(2).start(mem_factory);
    let client = server.client();
    assert!(matches!(
        client.submit(Request::write(0, 9, 0, 1)),
        Err(SubmitError::UnknownVolume { volume: 9 })
    ));
    assert!(matches!(
        client.submit(Request::write(0, 1, 4 * 1024, 1)),
        Err(SubmitError::OutOfRange { .. })
    ));
    assert!(matches!(
        client.submit(Request::write(0, 0, 511, 2)),
        Err(SubmitError::CrossesShardBoundary { .. })
    ));
    assert!(matches!(client.submit(Request::write(0, 0, 0, 0)), Err(SubmitError::ZeroBlocks)));
    assert!(matches!(
        client.submit(Request::write(0, 0, 0, 1).with_seq(0)),
        Err(SubmitError::SequenceMismatch),
    ));
    let report = server.shutdown();
    assert!(report.balanced());
    assert!(matches!(client.submit(Request::write(0, 0, 0, 1)), Err(SubmitError::Shutdown)));
}

/// Ordered mode: the same pre-sequenced op stream, submitted by 1 vs 4
/// client threads, must leave every shard engine in a bit-identical
/// state. This is the serve-level half of the determinism contract (the
/// sim-level suite drives it through full replay workloads).
#[test]
fn ordered_replay_is_bit_identical_across_client_counts() {
    let run = |client_threads: usize| {
        let server = mem_builder().shards(2).ordered_replay(true).start(mem_factory);
        let client = server.client();
        // Pre-assign dense per-shard sequences, exactly as a replay
        // harness would.
        let mut next_seq = [0u64; 2];
        let mut ops: Vec<Request> = Vec::new();
        for i in 0..4000u64 {
            let r = mix(i ^ 0x5EED);
            let lba = mix(r) % (8 * 1024);
            let mut req = if r.is_multiple_of(11) {
                Request::read(0, 0, lba, 1)
            } else {
                Request::write(0, 0, lba, 1)
            };
            let shard = client.shard_of(req.volume, req.lba, req.blocks).unwrap() as usize;
            req = req.with_seq(next_seq[shard]);
            next_seq[shard] += 1;
            ops.push(req);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..client_threads)
                .map(|t| {
                    let client = client.clone();
                    let slice: Vec<Request> =
                        ops.iter().skip(t).step_by(client_threads).copied().collect();
                    scope.spawn(move || {
                        let tickets: Vec<_> = slice
                            .into_iter()
                            .map(|req| client.submit_backoff(req).unwrap())
                            .collect();
                        for t in tickets {
                            assert!(client.wait(t).result.is_ok());
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let report = server.shutdown();
        assert!(report.balanced());
        report
    };
    let solo = run(1);
    let quad = run(4);
    for (a, b) in solo.shards.iter().zip(&quad.shards) {
        assert_eq!(a.telemetry, b.telemetry, "shard {} telemetry diverged", a.shard);
        assert_eq!(a.per_volume, b.per_volume, "shard {} attribution diverged", a.shard);
        assert_eq!(a.applied_ops, b.applied_ops);
    }
    assert_eq!(solo.merged_telemetry(), quad.merged_telemetry());
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Ordered mode: the order in which a sequenced stream is *submitted* is
/// invisible. In order (every op takes the bypass around the reorder
/// buffer), in reversed windows (every op but the last of a window is an
/// early arrival) and fully shuffled, the same stream leaves the same
/// merged telemetry, live and at shutdown.
#[test]
fn ordered_submission_order_is_invisible() {
    const N: usize = 3000;
    let run = |permute: fn(&mut Vec<Request>)| {
        let server = mem_builder().shards(2).ordered_replay(true).start(mem_factory);
        let client = server.client();
        let mut next_seq = [0u64; 2];
        let mut ops: Vec<Request> = (0..N as u64)
            .map(|i| {
                let r = mix(i ^ 0x0D0E);
                let (volume, cap) = if r.is_multiple_of(5) { (1, 4 * 1024) } else { (0, 8 * 1024) };
                let lba = mix(r) % cap;
                let req = match r % 19 {
                    0 => Request::trim(0, volume, lba, 1),
                    1..=4 => Request::read(0, volume, lba, 1),
                    _ => Request::write(0, volume, lba, 1),
                };
                let shard = client.shard_of(req.volume, req.lba, req.blocks).unwrap() as usize;
                next_seq[shard] += 1;
                req.with_seq(next_seq[shard] - 1)
            })
            .collect();
        permute(&mut ops);
        let tickets: Vec<_> =
            ops.into_iter().map(|req| client.submit_backoff(req).unwrap()).collect();
        for t in tickets {
            assert_eq!(client.wait(t).result, Ok(()));
        }
        let fnv = |t: &TelemetrySnapshot| fnv1a(serde_json::to_string(t).unwrap().as_bytes());
        let live = fnv(&client.merged_telemetry());
        let report = server.shutdown();
        assert!(report.balanced() && !report.any_failed());
        assert_eq!(report.shards.iter().map(|s| s.applied_ops).sum::<u64>(), N as u64);
        (live, fnv(&report.merged_telemetry()), report.per_volume())
    };
    let in_order = run(|_| {});
    let reversed_windows = run(|ops| ops.chunks_mut(64).for_each(<[Request]>::reverse));
    let shuffled = run(|ops| {
        for i in (1..ops.len()).rev() {
            ops.swap(i, (mix(i as u64) % (i as u64 + 1)) as usize);
        }
    });
    assert_eq!(in_order, reversed_windows);
    assert_eq!(in_order, shuffled);
}

/// What ordered mode rejects, and with which error: a request without a
/// sequence (synchronously), a sequence that was already applied, a
/// second early arrival with the sequence of a buffered one (the *first*
/// fails, the newcomer takes its place), and a gap nobody fills (at
/// shutdown).
#[test]
fn ordered_mode_rejects_missing_stale_duplicate_and_gapped_sequences() {
    let server = mem_builder().shards(1).ordered_replay(true).start(mem_factory);
    let client = server.client();
    let write = |lba: u64, seq: u64| Request::write(0, 0, lba, 1).with_seq(seq);
    let engine = |msg: &str| Err(ServeError::Engine(msg.to_string()));

    assert!(matches!(
        client.submit(Request::write(0, 0, 0, 1)),
        Err(SubmitError::SequenceMismatch)
    ));

    let first = client.submit(write(0, 0)).unwrap();
    assert_eq!(client.wait(first).result, Ok(()));
    let stale = client.submit(write(1, 0)).unwrap();
    assert_eq!(client.wait(stale).result, engine("stale sequence 0"));
    // Counted before the ticket was filled: live stats never trail a harvest.
    let live = client.stats()[0];
    assert_eq!((live.completed, live.failed_ops), (2, 1));

    // Two early arrivals with the same sequence: both are buffered, so
    // which one fails does not depend on drain timing.
    let early = client.submit(write(2, 3)).unwrap();
    let twin = client.submit(write(3, 3)).unwrap();
    let c = client.wait(early);
    assert_eq!(c.result, engine("duplicate sequence 3"));
    assert_eq!(c.version, 0, "never applied");
    // The in-order arrival of the sequence a drain is waiting for applies;
    // its repeat is stale whether or not the two share a drain.
    let next = client.submit(write(4, 1)).unwrap();
    let again = client.submit(write(5, 1)).unwrap();
    assert_eq!(client.wait(next).result, Ok(()));
    assert_eq!(client.wait(again).result, engine("stale sequence 1"));
    // Closing the gap releases the buffered twin.
    let gap = client.submit(write(6, 2)).unwrap();
    assert_eq!(client.wait(gap).result, Ok(()));
    let c = client.wait(twin);
    assert_eq!(c.result, Ok(()));
    assert_eq!(c.request.lba, 3);

    // Sequence 4 never arrives: 5 stays buffered until shutdown fails it.
    let orphan = client.submit(write(7, 5)).unwrap();
    let report = server.shutdown();
    assert_eq!(client.wait(orphan).result, engine("sequence gap unresolved at shutdown"));
    assert!(report.balanced());
    assert_eq!(report.shards[0].applied_ops, 4);
    assert_eq!(report.shards[0].stats.failed_ops, 4);
}

/// Wraps a real engine with a wait-gate on every apply (so tests can
/// deterministically hold a shard's queue full) and error injection by
/// LBA on writes and reads.
struct GatedEngine {
    inner: Lss<SepGc, CountingArray>,
    /// `(open, cv)`: applies block while `!open`.
    gate: Arc<(Mutex<bool>, Condvar)>,
    /// The error a write or read at this LBA fails with, if any.
    fault: fn(u64) -> Option<EngineError>,
}

fn corrupt(lba: u64) -> EngineError {
    EngineError::IndexCorruption { lba, detail: "injected fault".into() }
}

fn gated_server(
    builder: ServerBuilder,
    gate: &Arc<(Mutex<bool>, Condvar)>,
    fault: fn(u64) -> Option<EngineError>,
) -> adapt_serve::Server {
    let gate = Arc::clone(gate);
    builder.start(move |plan| {
        let sink = CountingArray::new(plan.lss.array_config());
        Box::new(GatedEngine {
            inner: Lss::builder(SepGc::new(), sink).config(plan.lss).build(),
            gate: Arc::clone(&gate),
            fault,
        })
    })
}

impl GatedEngine {
    fn wait_gate(&self) {
        let (open, cv) = &*self.gate;
        let mut open = open.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
    }
}

fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (open, cv) = &**gate;
    *open.lock().unwrap() = true;
    cv.notify_all();
}

impl ShardEngine for GatedEngine {
    fn apply_write(&mut self, ts_us: u64, lba: u64, blocks: u32) -> Result<(), EngineError> {
        self.wait_gate();
        if let Some(e) = (self.fault)(lba) {
            return Err(e);
        }
        ShardEngine::apply_write(&mut self.inner, ts_us, lba, blocks)
    }

    fn apply_read(&mut self, ts_us: u64, lba: u64, blocks: u32) -> Result<(), EngineError> {
        self.wait_gate();
        if let Some(e) = (self.fault)(lba) {
            return Err(e);
        }
        ShardEngine::apply_read(&mut self.inner, ts_us, lba, blocks)
    }

    fn apply_trim(&mut self, ts_us: u64, lba: u64, blocks: u32) -> Result<(), EngineError> {
        self.wait_gate();
        ShardEngine::apply_trim(&mut self.inner, ts_us, lba, blocks)
    }

    fn sync(&mut self) -> Result<(), EngineError> {
        ShardEngine::sync(&mut self.inner)
    }

    fn flush_all(&mut self) -> Result<(), EngineError> {
        ShardEngine::flush_all(&mut self.inner)
    }

    fn gc_needed(&self) -> bool {
        ShardEngine::gc_needed(&self.inner)
    }

    fn gc_step(&mut self) -> Result<bool, EngineError> {
        ShardEngine::gc_step(&mut self.inner)
    }

    fn probe(&self) -> Probe {
        ShardEngine::probe(&self.inner)
    }

    fn telemetry(&mut self) -> TelemetrySnapshot {
        ShardEngine::telemetry(&mut self.inner)
    }
}

/// A queue-full `Busy` rejection refunds the admission token it already
/// consumed: shard backpressure must not drain the tenant's QoS budget.
/// With refill 0 the bucket holds exactly `burst_ops` lifetime tokens,
/// so the arithmetic is exact: 3 + 5 successful admissions exhaust an
/// 8-token bucket no matter how many Busy rejections happen in between.
#[test]
fn queue_full_refunds_qos_token() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let builder = ServerBuilder::new()
        .volume(0, 8 * 1024)
        .range_blocks(8 * 1024)
        .shards(1)
        .queue_depth(2)
        .qos(adapt_serve::QosConfig { refill_per_op: 0.0, burst_ops: 8.0 });
    let server = gated_server(builder, &gate, |_| None);
    let client = server.client();
    // First op: the worker dequeues it and parks on the closed gate.
    let mut tickets = vec![client.submit(Request::write(0, 0, 0, 1)).unwrap()];
    while client.queue_depths()[0] > 0 {
        std::thread::yield_now();
    }
    // Two more fill the depth-2 queue behind the parked worker.
    for lba in 1..3 {
        tickets.push(client.submit(Request::write(0, 0, lba, 1)).unwrap());
    }
    // Tokens so far: 8 − 3 = 5. A storm of queue-full rejections must
    // leave that balance untouched.
    for lba in 0..10 {
        match client.submit(Request::write(0, 0, 100 + lba, 1)) {
            Err(SubmitError::Busy { .. }) => {}
            other => panic!("full queue must reject Busy, got {other:?}"),
        }
    }
    open_gate(&gate);
    for t in tickets {
        assert!(client.wait(t).result.is_ok());
    }
    // The remaining 5 tokens admit exactly 5 more ops…
    for lba in 200..205 {
        let t = client.submit_backoff(Request::write(0, 0, lba, 1)).unwrap();
        assert!(client.wait(t).result.is_ok());
    }
    // …and the 9th lifetime admission throttles (admission precedes the
    // queue, so this is Throttled, never Busy). Without the refund the
    // Busy storm would have hit this 10 ops earlier.
    assert!(matches!(
        client.submit(Request::write(0, 0, 300, 1)),
        Err(SubmitError::TenantThrottled { tenant: 0 })
    ));
    let report = server.shutdown();
    assert!(report.balanced());
    assert_eq!(report.shards[0].stats.rejected_busy, 10);
}

/// After a fatal engine error fail-stops a shard, later submissions
/// still complete — with `ShardFailed` — and a non-blocking
/// [`Ticket::poll`] observes that completion without ever blocking.
#[test]
fn poll_observes_fail_stopped_shard() {
    let gate = Arc::new((Mutex::new(true), Condvar::new()));
    let builder = ServerBuilder::new().volume(0, 8 * 1024).range_blocks(8 * 1024).shards(1);
    let server = gated_server(builder, &gate, |lba| Some(corrupt(lba)));
    let client = server.client();
    // The op that hits the fault reports the engine error itself…
    let first = client.wait(client.submit(Request::write(0, 0, 0, 1)).unwrap());
    assert!(matches!(first.result, Err(ServeError::Engine(_))), "got {first:?}");
    // …and everything after it fails fast with ShardFailed, observable
    // through the non-blocking poll.
    let ticket = client.submit(Request::write(0, 0, 1, 1)).unwrap();
    let polled = loop {
        match ticket.poll() {
            Some(c) => break c,
            None => std::thread::yield_now(),
        }
    };
    assert_eq!(polled.result, Err(ServeError::ShardFailed { shard: 0 }));
    assert!(!polled.durable);
    // Reads fail the same way: the engine is never touched again.
    let read = client.wait(client.submit(Request::read(0, 0, 0, 1)).unwrap());
    assert_eq!(read.result, Err(ServeError::ShardFailed { shard: 0 }));
    let report = server.shutdown();
    assert!(report.balanced(), "fail-stop must not lose completions");
    assert!(report.shards[0].failed);
    assert!(report.any_failed());
    assert_eq!(report.shards[0].stats.failed_ops, 3);
}

/// A run of same-volume ops that fails partway: ops B–F queue behind op
/// A while the shard is held at the gate inside A, so they drain and
/// apply as one run. A non-fatal error on B fails B alone; the fatal
/// error on D fails D, fail-stops the shard, fails A (applied but not yet
/// behind a barrier) with `ShardFailed` at its version, and fails E and F
/// with `ShardFailed` at version 0 without applying them.
#[test]
fn run_that_fails_partway_completes_every_op_exactly() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let builder = ServerBuilder::new().volume(0, 8 * 1024).range_blocks(8 * 1024).shards(1);
    fn lost_chunk() -> EngineError {
        EngineError::Array(adapt_array::ArrayError::Unreconstructable {
            loc: adapt_array::ChunkLocation { stripe: 0, device: 0, column: 0 },
        })
    }
    let server = gated_server(builder, &gate, |lba| match lba {
        1 => Some(lost_chunk()),
        3 => Some(corrupt(lba)),
        _ => None,
    });
    let client = server.client();
    let a = client.submit(Request::write(0, 0, 0, 1)).unwrap();
    // The worker has dequeued A and waits on the closed gate inside it.
    while client.queue_depths()[0] > 0 {
        std::thread::yield_now();
    }
    let rest: Vec<_> = [
        Request::read(0, 0, 1, 1),  // B: non-fatal error
        Request::read(0, 0, 2, 1),  // C: completes at apply
        Request::write(0, 0, 3, 1), // D: fatal error
        Request::write(0, 0, 4, 1), // E: cut off
        Request::read(0, 0, 5, 1),  // F: cut off
    ]
    .into_iter()
    .map(|req| client.submit(req).unwrap())
    .collect();
    open_gate(&gate);
    let got: Vec<_> = std::iter::once(a)
        .chain(rest)
        .map(|t| {
            let c = client.wait(t);
            (c.result, c.version, c.durable)
        })
        .collect();
    let failed = Err(ServeError::ShardFailed { shard: 0 });
    assert_eq!(
        got,
        vec![
            (failed.clone(), 1, false),
            (Err(ServeError::Engine(lost_chunk().to_string())), 2, false),
            (Ok(()), 3, false),
            (Err(ServeError::Engine(corrupt(3).to_string())), 4, false),
            (failed.clone(), 0, false),
            (failed, 0, false),
        ]
    );
    let report = server.shutdown();
    assert!(report.balanced());
    assert!(report.shards[0].failed);
    assert_eq!(report.shards[0].applied_ops, 4, "A–D reached the engine, E and F did not");
    assert_eq!(report.shards[0].stats.failed_ops, 5);
}

/// An abandoned sequence gap must not hang shutdown: the gapped op
/// completes with an error and the queue accounting stays balanced.
#[test]
fn sequence_gap_completes_with_error_at_shutdown() {
    let server = mem_builder().shards(1).ordered_replay(true).start(mem_factory);
    let client = server.client();
    // seq 1 without seq 0: never applicable.
    let orphan = client.submit(Request::write(0, 0, 7, 1).with_seq(1)).unwrap();
    let report = server.shutdown();
    let c = client.wait(orphan);
    assert!(c.result.is_err(), "gapped op must fail, not vanish: {c:?}");
    assert!(report.balanced());
    assert_eq!(report.shards[0].applied_ops, 0);
}

fn tdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("adapt_serve_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Durable server: every completion acked `durable` must be readable at
/// (or above) its acked version after the engine is recovered from disk.
#[test]
fn durable_acks_survive_recovery() {
    let dir = tdir("durable");
    let builder = ServerBuilder::new()
        .volume(0, 4 * 1024)
        .range_blocks(1024)
        .shards(1)
        .group_commit_window(8)
        .durable(true);
    let plans = builder.shard_plans();
    let durability = || DurabilityConfig {
        fsync: FsyncPolicy::GroupCommit(4),
        rotate_bytes: 64 * 1024,
        checkpoint_every_flushes: 64,
        fsync_data: false,
        budget: None,
    };
    let sink_opts = || FileSinkOptions { fsync: false, stripes_per_file: 16, budget: None };
    let server = {
        let dir = dir.clone();
        builder.start(move |plan| {
            let d = dir.join(format!("shard{}", plan.shard));
            let sink = FileArraySink::create(plan.lss.array_config(), d.join("array"), sink_opts())
                .expect("create sink");
            Box::new(
                Lss::builder(SepGc::new(), sink)
                    .config(plan.lss)
                    .durability(d.join("wal"), durability())
                    .build(),
            )
        })
    };
    let client = server.client();
    let tickets: Vec<_> = (0..1500u64)
        .map(|i| client.submit_backoff(Request::write(0, 0, mix(i) % 4096, 1)).unwrap())
        .collect();
    let mut acked: HashMap<u64, u64> = HashMap::new();
    for t in tickets {
        let c = client.wait(t);
        assert_eq!(c.result, Ok(()));
        assert!(c.durable, "durable server must ack through the WAL barrier");
        let v = acked.entry(c.request.lba).or_insert(c.version);
        *v = (*v).max(c.version);
    }
    let report = server.shutdown();
    assert!(report.balanced());
    assert!(!report.any_failed());

    // Recover the shard engine from disk and verify every ack.
    let plan = &plans[0];
    let sink = FileArraySink::open_recovery(
        plan.lss.array_config(),
        dir.join("shard0/array"),
        sink_opts(),
    )
    .expect("reopen sink");
    let (engine, _report) = Lss::builder(SepGc::new(), sink)
        .config(plan.lss)
        .durability(dir.join("shard0/wal"), durability())
        .recover()
        .expect("recover");
    // The routing table is a pure function of the builder config:
    // rebuild it to translate volume LBAs to shard-local ones.
    let router = ShardRouter::new(1, 1024, &[VolumeSpec { id: 0, blocks: 4 * 1024 }]);
    for (&lba, &version) in &acked {
        let local = router.locate(0, lba, 1).unwrap().local_lba;
        let durable = engine.durable_version(local);
        assert!(
            durable.is_some_and(|v| v >= version),
            "acked write lba {lba} v{version} lost after recovery (found {durable:?})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

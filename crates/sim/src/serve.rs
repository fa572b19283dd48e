//! Serving-layer harness: deterministic multi-client replays of any
//! [`Scheme`] through a sharded server and its async submission API.
//!
//! `adapt-serve` is policy-agnostic: `ServerBuilder::start` takes a
//! closure that builds each shard's boxed engine from its plan. Here that
//! closure is `Lss::builder(scheme.policy(&plan.lss), sink)` — each shard
//! gets its own policy instance and its own sink — so a 4-shard ADAPT
//! server is four fully independent engines behind one [`Client`].
//!
//! [`run_serve_replay`] is the determinism workhorse: it generates a
//! seeded multi-volume trace, pre-partitions it onto shards (assigning
//! each shard a dense apply sequence), stripes submission across any
//! number of client threads, and harvests every completion. Under
//! ordered replay the per-shard engine op stream is canonical, so the
//! resulting telemetry is bit-identical whether one thread or eight
//! submitted it — the property the cross-shard determinism suite and
//! the saturation bench both gate on.

use crate::scheme::Scheme;
use adapt_array::CountingArray;
use adapt_lss::{Lss, LssMetrics, Retryable, TelemetrySnapshot};
use adapt_serve::{
    Client, Completion, Request, ServerBuilder, ShardStatsSnapshot, Ticket, VolumeId,
};
use adapt_trace::rng::Xoshiro256StarStar;
use adapt_trace::ZipfGenerator;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// A deterministic multi-client replay through a sharded server.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReplayConfig {
    /// Placement scheme every shard runs.
    pub scheme: Scheme,
    /// Shard count.
    pub shards: u32,
    /// Client submission threads.
    pub clients: usize,
    /// Volume sizes in blocks; volume ids are `0..volumes.len()`.
    pub volumes: Vec<u64>,
    /// Total operations across all volumes.
    pub ops: u64,
    /// Zipfian skew of the global block popularity.
    pub zipf_alpha: f64,
    /// Fraction of ops that are reads (the rest write).
    pub read_ratio: f64,
    /// Routing-range size in blocks.
    pub range_blocks: u64,
    /// Per-shard queue depth.
    pub queue_depth: u32,
    /// Group-commit window.
    pub window: u32,
    /// Trace seed.
    pub seed: u64,
}

impl ServeReplayConfig {
    /// Small smoke-test replay (CI-friendly in debug builds).
    pub fn quick(scheme: Scheme, shards: u32, clients: usize) -> Self {
        Self {
            scheme,
            shards,
            clients,
            volumes: vec![6144, 2048],
            ops: 30_000,
            zipf_alpha: 0.9,
            read_ratio: 0.3,
            range_blocks: 512,
            queue_depth: 256,
            window: 32,
            seed: 0xADA7_5EED,
        }
    }

    /// The medium replay of the perf suite: 256 Ki user blocks, 1 Mi
    /// ops, zipf 0.9 — the workload the saturation bench sweeps.
    pub fn medium(scheme: Scheme, shards: u32, clients: usize) -> Self {
        Self {
            scheme,
            shards,
            clients,
            volumes: vec![192 * 1024, 64 * 1024],
            ops: 1 << 20,
            zipf_alpha: 0.9,
            read_ratio: 0.3,
            range_blocks: 4096,
            queue_depth: 256,
            window: 32,
            seed: 0xADA7,
        }
    }

    /// The ordered-replay server this replay runs against.
    pub fn server_builder(&self) -> ServerBuilder {
        let mut b = ServerBuilder::new()
            .shards(self.shards)
            .queue_depth(self.queue_depth)
            .group_commit_window(self.window)
            .range_blocks(self.range_blocks)
            .ordered_replay(true);
        for (id, blocks) in self.volumes.iter().enumerate() {
            b = b.volume(id as VolumeId, *blocks);
        }
        b
    }

    /// The seeded op stream, without shard sequences.
    fn trace(&self) -> Vec<Request> {
        let total: u64 = self.volumes.iter().sum();
        let zipf = ZipfGenerator::new(total, self.zipf_alpha);
        let mut rng = Xoshiro256StarStar::new(self.seed);
        // Scatter zipf ranks so the hot set isn't one dense prefix (the
        // same de-clustering trick the trace suites use).
        let scatter = total / 2 + 1;
        let mut ops = Vec::with_capacity(self.ops as usize);
        for _ in 0..self.ops {
            let g = (zipf.sample(&mut rng) * scatter) % total;
            let (volume, lba) = self.locate(g);
            let r = if rng.next_f64() < self.read_ratio {
                Request::read(0, volume, lba, 1)
            } else {
                Request::write(0, volume, lba, 1)
            };
            ops.push(r);
        }
        ops
    }

    fn locate(&self, global: u64) -> (VolumeId, u64) {
        let mut base = 0u64;
        for (id, blocks) in self.volumes.iter().enumerate() {
            if global < base + blocks {
                return (id as VolumeId, global - base);
            }
            base += blocks;
        }
        unreachable!("global block {global} beyond volume space");
    }
}

/// Everything a serve replay produced. The deterministic fields —
/// telemetry, per-volume metrics, applied-op counts — are byte-identical
/// across client-thread counts; the timing fields are measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReplayResult {
    /// Scheme replayed.
    pub scheme: Scheme,
    /// Shard count.
    pub shards: u32,
    /// Client threads that submitted.
    pub clients: usize,
    /// Ops submitted (and completed — the harness loses nothing).
    pub ops: u64,
    /// Completions that reported success.
    pub completed_ok: u64,
    /// Completions that reported an error.
    pub completed_err: u64,
    /// Busy rejections retried by the submitters.
    pub busy_retries: u64,
    /// Merged telemetry across shards (deterministic).
    pub merged: TelemetrySnapshot,
    /// Per-shard telemetry, shard order (deterministic).
    pub per_shard: Vec<TelemetrySnapshot>,
    /// Per-volume attributed metrics, volume order (deterministic).
    pub per_volume: Vec<(VolumeId, LssMetrics)>,
    /// Per-shard applied-op counts (deterministic).
    pub applied_ops: Vec<u64>,
    /// Final shard counters.
    pub stats: Vec<ShardStatsSnapshot>,
    /// Queue accounting balanced on every shard.
    pub balanced: bool,
    /// Any shard fail-stopped.
    pub any_failed: bool,
    /// Wall-clock submit-to-last-completion time.
    pub elapsed_secs: f64,
    /// Per-shard busy time in ns (measurement, not deterministic).
    pub shard_busy_ns: Vec<u64>,
}

impl ServeReplayResult {
    /// Aggregate wall-clock throughput in kops/s.
    pub fn wall_kops(&self) -> f64 {
        self.ops as f64 / self.elapsed_secs / 1e3
    }

    /// Critical-path throughput in kops/s: total ops over the *maximum*
    /// shard busy time. This is the array's throughput with one core per
    /// shard, independent of how many cores the measuring host has —
    /// the number the shard-scaling gate compares.
    pub fn critical_path_kops(&self) -> f64 {
        let max_busy = self.shard_busy_ns.iter().copied().max().unwrap_or(0);
        if max_busy == 0 {
            return 0.0;
        }
        self.ops as f64 / (max_busy as f64 / 1e9) / 1e3
    }

    /// The deterministic slice of the result, for bit-identity checks
    /// across client-thread counts (serialized via `serde_json`).
    pub fn determinism_key(&self) -> String {
        crate::report::to_json(&(
            &self.merged,
            &self.per_shard,
            &self.per_volume,
            &self.applied_ops,
            self.completed_ok,
            self.completed_err,
        ))
    }
}

/// Run `cfg` against a freshly spawned in-memory server: pre-partition
/// the seeded trace onto shards with dense apply sequences, stripe
/// submission over `cfg.clients` threads, wait for every completion.
pub fn run_serve_replay(cfg: &ServeReplayConfig) -> ServeReplayResult {
    let server = cfg.server_builder().start(|plan| {
        let sink = CountingArray::new(plan.lss.array_config());
        Box::new(Lss::builder(cfg.scheme.policy(&plan.lss), sink).config(plan.lss).build())
    });
    let client = server.client();

    // Assign each op its shard's next dense sequence number. The
    // assignment depends only on the trace and the routing function, so
    // every client-thread count replays the identical per-shard stream.
    let mut next_seq = vec![0u64; cfg.shards as usize];
    let ops: Vec<Request> = cfg
        .trace()
        .into_iter()
        .map(|r| {
            let shard = client.shard_of(r.volume, r.lba, r.blocks).expect("trace in range");
            let seq = next_seq[shard as usize];
            next_seq[shard as usize] += 1;
            r.with_seq(seq)
        })
        .collect();

    let t0 = Instant::now();
    let (ok, err, retries) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients.max(1))
            .map(|t| {
                let client = client.clone();
                let ops = &ops;
                scope.spawn(move || submit_stripe(&client, ops, t, cfg.clients.max(1)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .fold((0u64, 0u64, 0u64), |(a, b, c), (x, y, z)| (a + x, b + y, c + z))
    });
    let elapsed_secs = t0.elapsed().as_secs_f64();

    let report = server.shutdown();
    ServeReplayResult {
        scheme: cfg.scheme,
        shards: cfg.shards,
        clients: cfg.clients.max(1),
        ops: cfg.ops,
        completed_ok: ok,
        completed_err: err,
        busy_retries: retries,
        merged: report.merged_telemetry(),
        per_shard: report.shards.iter().map(|s| s.telemetry.clone()).collect(),
        per_volume: report.per_volume(),
        applied_ops: report.shards.iter().map(|s| s.applied_ops).collect(),
        stats: report.shards.iter().map(|s| s.stats).collect(),
        balanced: report.balanced(),
        any_failed: report.any_failed(),
        elapsed_secs,
        shard_busy_ns: report.shards.iter().map(|s| s.busy_ns).collect(),
    }
}

/// One client thread: submit every `stride`-th op starting at `offset`,
/// keeping a bounded in-flight window so memory stays flat. Returns
/// `(ok, err, busy_retries)` over the completions it harvested.
fn submit_stripe(
    client: &Client,
    ops: &[Request],
    offset: usize,
    stride: usize,
) -> (u64, u64, u64) {
    const IN_FLIGHT: usize = 128;
    let mut tickets: std::collections::VecDeque<Ticket> =
        std::collections::VecDeque::with_capacity(IN_FLIGHT);
    let (mut ok, mut err, mut retries) = (0u64, 0u64, 0u64);
    let mut tally = |c: Completion| {
        if c.result.is_ok() {
            ok += 1;
        } else {
            err += 1;
        }
    };
    for r in ops.iter().skip(offset).step_by(stride) {
        let ticket = loop {
            match client.submit(*r) {
                Ok(t) => break t,
                Err(e) if e.is_retryable() => {
                    retries += 1;
                    // Drain whatever already finished before yielding;
                    // a full queue usually means completions are ready.
                    while let Some(front) = tickets.front() {
                        match front.poll() {
                            Some(c) => {
                                tickets.pop_front();
                                tally(c);
                            }
                            None => break,
                        }
                    }
                    std::thread::yield_now();
                }
                Err(e) => panic!("replay submission failed: {e}"),
            }
        };
        tickets.push_back(ticket);
        if tickets.len() >= IN_FLIGHT {
            let t = tickets.pop_front().unwrap();
            tally(client.wait(t));
        }
    }
    for t in tickets {
        tally(client.wait(t));
    }
    (ok, err, retries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_replay_completes_everything() {
        let cfg = ServeReplayConfig::quick(Scheme::SepGc, 2, 2);
        let r = run_serve_replay(&cfg);
        assert_eq!(r.completed_ok, cfg.ops);
        assert_eq!(r.completed_err, 0);
        assert!(r.balanced, "queue accounting must balance");
        assert!(!r.any_failed);
        assert_eq!(r.applied_ops.iter().sum::<u64>(), cfg.ops);
        assert!(r.merged.lss.host_write_bytes > 0);
    }

    #[test]
    fn replay_is_bit_identical_across_client_counts() {
        // The serve-level determinism contract at sim scale: shards in
        // {1, 4} × client threads in {1, 8}, same telemetry bytes. The
        // saturation bench runs the same check on the medium replay.
        for shards in [1u32, 4] {
            let a = run_serve_replay(&ServeReplayConfig::quick(Scheme::Adapt, shards, 1));
            let b = run_serve_replay(&ServeReplayConfig::quick(Scheme::Adapt, shards, 8));
            assert_eq!(
                a.determinism_key(),
                b.determinism_key(),
                "shards={shards}: 1-client and 8-client replays diverged"
            );
        }
    }

    #[test]
    fn per_volume_attribution_sums_to_merged() {
        let r = run_serve_replay(&ServeReplayConfig::quick(Scheme::SepGc, 4, 2));
        let attributed: u64 = r.per_volume.iter().map(|(_, m)| m.host_write_bytes).sum();
        assert_eq!(attributed, r.merged.lss.host_write_bytes);
        assert_eq!(r.per_volume.len(), 2, "both volumes saw traffic");
    }

    #[test]
    fn every_paper_scheme_serves() {
        for scheme in Scheme::PAPER {
            let mut cfg = ServeReplayConfig::quick(scheme, 2, 2);
            cfg.ops = 4_000;
            let r = run_serve_replay(&cfg);
            assert_eq!(r.completed_ok, cfg.ops, "{}", scheme.name());
            assert!(r.balanced, "{}", scheme.name());
        }
    }
}

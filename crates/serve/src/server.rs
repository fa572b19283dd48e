//! Server assembly: [`ServerBuilder`] → [`Server`] → cloneable
//! [`Client`] handles.
//!
//! The builder captures everything that must be reproducible — shard
//! count, routing-range size, queue depth, group-commit window, the
//! engine config template, volume registrations, tenant weights — and
//! derives a [`ShardPlan`] per shard: the routing slots it owns plus an
//! [`LssConfig`] sized to its share of the address space (same
//! over-provisioning floor the simulator applies to small volumes).
//! `start` hands each plan to a caller-supplied engine factory, which
//! keeps this crate policy-agnostic: `adapt-sim` monomorphizes the
//! placement policy and returns a boxed [`ShardEngine`].
//!
//! Plans are pure functions of the builder configuration, so a crash
//! harness can rebuild the *same* plans, recover each shard's engine
//! from its WAL directory, and re-serve — routing needs no persistence.

use crate::api::{Completion, Request, SubmitError, TenantId, Ticket, VolumeId};
use crate::qos::{QosConfig, TenantGovernor};
use crate::router::{ShardRouter, VolumeSpec};
use crate::shard::{
    OpCommand, PushError, ShardEngine, ShardQueue, ShardReport, ShardStatsSnapshot, ShardWorker,
};
use adapt_lss::{LssConfig, LssMetrics, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Everything one shard needs to build its engine.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard id (0-based).
    pub shard: u32,
    /// Engine configuration sized for this shard's slice of the address
    /// space.
    pub lss: LssConfig,
    /// `(volume, range)` routing slots this shard owns, in slot order.
    pub ranges: Vec<(VolumeId, u64)>,
}

/// Configures and launches a sharded server.
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    shards: u32,
    queue_depth: u32,
    window: u32,
    range_blocks: u64,
    ordered: bool,
    durable: bool,
    base: LssConfig,
    volumes: Vec<VolumeSpec>,
    qos: Option<QosConfig>,
    weights: Vec<(TenantId, f64)>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerBuilder {
    /// Builder with serving defaults: 1 shard, queue depth 256,
    /// group-commit window 32, 4096-block routing ranges, FIFO drain.
    pub fn new() -> Self {
        Self {
            shards: 1,
            queue_depth: 256,
            window: 32,
            range_blocks: 4096,
            ordered: false,
            durable: false,
            base: LssConfig::default().with_gc_watermarks(10, 14),
            volumes: Vec::new(),
            qos: None,
            weights: Vec::new(),
        }
    }

    /// Number of independent shards (engines + threads).
    pub fn shards(mut self, n: u32) -> Self {
        assert!(n > 0, "need at least one shard");
        self.shards = n;
        self
    }

    /// Per-shard command-queue depth (submissions beyond it get `Busy`).
    pub fn queue_depth(mut self, depth: u32) -> Self {
        assert!(depth > 0, "queue depth must be nonzero");
        self.queue_depth = depth;
        self
    }

    /// Group-commit window: pending writes that trigger a WAL barrier.
    pub fn group_commit_window(mut self, window: u32) -> Self {
        assert!(window > 0, "group-commit window must be nonzero");
        self.window = window;
        self
    }

    /// Routing-range size in blocks; requests may not cross a boundary.
    pub fn range_blocks(mut self, blocks: u64) -> Self {
        assert!(blocks > 0, "routing range must be nonzero");
        self.range_blocks = blocks;
        self
    }

    /// Ordered-replay mode: every request must carry a dense per-shard
    /// `seq` and applies strictly in that order (see [`crate::shard`]).
    pub fn ordered_replay(mut self, on: bool) -> Self {
        self.ordered = on;
        self
    }

    /// Declare that shard engines have a WAL: group-commit barriers
    /// confer durability and completions report `durable: true`.
    pub fn durable(mut self, on: bool) -> Self {
        self.durable = on;
        self
    }

    /// Engine configuration template; per-shard `user_blocks` and the
    /// over-provisioning floor are derived from it by [`shard_plans`].
    ///
    /// [`shard_plans`]: ServerBuilder::shard_plans
    pub fn engine_config(mut self, base: LssConfig) -> Self {
        self.base = base;
        self
    }

    /// Register a volume of `blocks` logical blocks.
    pub fn volume(mut self, id: VolumeId, blocks: u64) -> Self {
        self.volumes.push(VolumeSpec { id, blocks });
        self
    }

    /// Enable admission control with this configuration.
    pub fn qos(mut self, cfg: QosConfig) -> Self {
        self.qos = Some(cfg);
        self
    }

    /// Set a tenant's fair-share weight (enables QoS with defaults if
    /// not already configured; unlisted tenants weigh 1.0).
    pub fn tenant_weight(mut self, tenant: TenantId, weight: f64) -> Self {
        assert!(weight > 0.0, "weights must be positive");
        if self.qos.is_none() {
            self.qos = Some(QosConfig::default());
        }
        self.weights.push((tenant, weight));
        self
    }

    fn router(&self) -> ShardRouter {
        ShardRouter::new(self.shards, self.range_blocks, &self.volumes)
    }

    /// The per-shard engine plans this configuration derives. Pure:
    /// calling it twice — or in a recovery process with the same builder
    /// — yields identical plans.
    pub fn shard_plans(&self) -> Vec<ShardPlan> {
        let router = self.router();
        (0..self.shards)
            .map(|shard| {
                // Engines need a minimum address space (4 segments) and
                // enough spare segments for GC watermarks + open
                // segments; same floor as the simulator's volume sizing.
                let blocks =
                    router.shard_user_blocks(shard).max(4 * self.base.segment_blocks() as u64);
                let lss = self.base.with_user_blocks(blocks);
                let min_spare = (lss.gc_high_water + 8 + 4) as u64;
                let min_op = min_spare as f64 * lss.segment_blocks() as f64 / blocks as f64;
                let lss = lss.with_op_ratio(lss.op_ratio.max(min_op * 1.05));
                ShardPlan { shard, lss, ranges: router.shard_ranges(shard).to_vec() }
            })
            .collect()
    }

    /// Launch the server: one engine (from `factory`) and one drain
    /// thread per shard.
    pub fn start<F>(self, mut factory: F) -> Server
    where
        F: FnMut(&ShardPlan) -> Box<dyn ShardEngine>,
    {
        let plans = self.shard_plans();
        let governor = match self.qos {
            Some(cfg) => TenantGovernor::new(cfg, self.weights.iter().copied()),
            None => TenantGovernor::unlimited(),
        };
        let queues: Vec<Arc<ShardQueue>> =
            (0..self.shards).map(|_| ShardQueue::new(self.queue_depth as usize)).collect();
        let handles = plans
            .iter()
            .map(|plan| {
                let worker = ShardWorker {
                    shard: plan.shard,
                    engine: factory(plan),
                    queue: Arc::clone(&queues[plan.shard as usize]),
                    window: self.window as usize,
                    ordered: self.ordered,
                    durable: self.durable,
                };
                std::thread::Builder::new()
                    .name(format!("adapt-shard-{}", plan.shard))
                    .spawn(move || worker.run())
                    .expect("spawn shard thread")
            })
            .collect();
        let shared = Arc::new(Shared {
            router: self.router(),
            governor,
            queues,
            depth: self.queue_depth,
            ordered: self.ordered,
        });
        Server { shared, handles, plans }
    }
}

#[derive(Debug)]
struct Shared {
    router: ShardRouter,
    governor: TenantGovernor,
    /// Per-shard command queue and live counters.
    queues: Vec<Arc<ShardQueue>>,
    depth: u32,
    ordered: bool,
}

/// A running sharded server. Owns the shard threads; dropping it without
/// [`shutdown`](Server::shutdown) detaches them (clients keep working
/// until the process exits).
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<ShardReport>>,
    plans: Vec<ShardPlan>,
}

impl Server {
    /// A new submission handle. Cheap; clone freely across threads.
    pub fn client(&self) -> Client {
        Client { shared: Arc::clone(&self.shared) }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shared.queues.len() as u32
    }

    /// The engine plans the shards were built from.
    pub fn plans(&self) -> &[ShardPlan] {
        &self.plans
    }

    /// Stop accepting work, drain every queue, flush every engine, and
    /// collect the final per-shard reports.
    pub fn shutdown(self) -> ServeReport {
        for q in &self.shared.queues {
            q.close();
        }
        let shards =
            self.handles.into_iter().map(|h| h.join().expect("shard thread panicked")).collect();
        ServeReport { shards }
    }
}

/// Cloneable submission handle.
#[derive(Debug, Clone)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Submit one request. Non-blocking: returns a [`Ticket`]
    /// immediately, or a typed rejection ([`SubmitError::Busy`] /
    /// [`SubmitError::TenantThrottled`] are the retryable backpressure
    /// cases — the request was *not* enqueued).
    pub fn submit(&self, request: Request) -> Result<Ticket, SubmitError> {
        let routed = self.shared.router.locate(request.volume, request.lba, request.blocks)?;
        if self.shared.ordered != request.seq.is_some() {
            return Err(SubmitError::SequenceMismatch);
        }
        let queue = &self.shared.queues[routed.shard as usize];
        let stats = &queue.stats.client;
        if let Err(e) = self.shared.governor.admit(request.tenant) {
            stats.rejected_throttled.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let board = &queue.board;
        let (slot, generation) = board.claim();
        let op =
            OpCommand { request, local_lba: routed.local_lba, slot, generation: generation as u32 };
        let err = match queue.try_push(&op) {
            Ok(()) => {
                let board = Arc::clone(board);
                return Ok(Ticket { board, slot, generation, shard: routed.shard, request });
            }
            Err(PushError::Full) => {
                self.shared.governor.refund(request.tenant);
                stats.rejected_busy.fetch_add(1, Ordering::Relaxed);
                SubmitError::Busy { shard: routed.shard, depth: self.shared.depth }
            }
            Err(PushError::Closed) => SubmitError::Shutdown,
        };
        board.release(slot, generation);
        Err(err)
    }

    /// Submit, retrying backpressure rejections (`Busy` /
    /// `TenantThrottled`) with a yield between attempts. Validation and
    /// shutdown errors return immediately. Replay harnesses use this to
    /// preserve the op stream across backpressure.
    pub fn submit_backoff(&self, request: Request) -> Result<Ticket, SubmitError> {
        loop {
            match self.submit(request) {
                Err(SubmitError::Busy { .. }) | Err(SubmitError::TenantThrottled { .. }) => {
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    /// Block until the ticket's request completes. Panics if
    /// [`Ticket::poll`] already returned the completion.
    pub fn wait(&self, ticket: Ticket) -> Completion {
        ticket.complete(ticket.board.take(ticket.slot, ticket.generation))
    }

    /// Which shard a request would route to (for harnesses that
    /// pre-partition a trace). Validation errors are the same as
    /// [`submit`](Client::submit)'s.
    pub fn shard_of(&self, volume: VolumeId, lba: u64, blocks: u32) -> Result<u32, SubmitError> {
        Ok(self.shared.router.locate(volume, lba, blocks)?.shard)
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shared.queues.len() as u32
    }

    /// Live queue depth per shard (lock-free reads of the rings).
    pub fn queue_depths(&self) -> Vec<usize> {
        self.shared.queues.iter().map(|q| q.len()).collect()
    }

    /// Live counter snapshot per shard.
    pub fn stats(&self) -> Vec<ShardStatsSnapshot> {
        self.shared.queues.iter().map(|q| q.stats.snapshot()).collect()
    }

    /// Synchronous telemetry probe of one shard: the shard drains its
    /// queue up to the probe, runs a group-commit barrier, and snapshots.
    /// `None` if the shard's queue is closed.
    pub fn telemetry(&self, shard: u32) -> Option<TelemetrySnapshot> {
        let q = self.shared.queues.get(shard as usize)?;
        let (reply, answer) = std::sync::mpsc::sync_channel(1);
        if !q.push_control(reply) {
            return None;
        }
        answer.recv().ok()
    }

    /// Array-wide rollup: merge of every live shard's telemetry.
    pub fn merged_telemetry(&self) -> TelemetrySnapshot {
        let shards: Vec<TelemetrySnapshot> =
            (0..self.shards()).filter_map(|s| self.telemetry(s)).collect();
        TelemetrySnapshot::merge(&shards)
    }
}

/// Everything the server knew at shutdown.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-shard final reports, in shard order.
    pub shards: Vec<ShardReport>,
}

impl ServeReport {
    /// Array-wide telemetry rollup across shards.
    pub fn merged_telemetry(&self) -> TelemetrySnapshot {
        let t: Vec<TelemetrySnapshot> = self.shards.iter().map(|s| s.telemetry.clone()).collect();
        TelemetrySnapshot::merge(&t)
    }

    /// Per-volume attributed traffic merged across shards, sorted by
    /// volume id.
    pub fn per_volume(&self) -> Vec<(VolumeId, LssMetrics)> {
        let mut merged: BTreeMap<VolumeId, LssMetrics> = BTreeMap::new();
        for shard in &self.shards {
            for (vol, m) in &shard.per_volume {
                merged.entry(*vol).or_default().merge_from(m);
            }
        }
        merged.into_iter().collect()
    }

    /// Queue accounting balanced on every shard: each accepted op
    /// produced exactly one completion.
    pub fn balanced(&self) -> bool {
        self.shards.iter().all(|s| s.stats.balanced())
    }

    /// Any shard fail-stopped.
    pub fn any_failed(&self) -> bool {
        self.shards.iter().any(|s| s.failed)
    }

    /// Total completions delivered across shards.
    pub fn total_completed(&self) -> u64 {
        self.shards.iter().map(|s| s.stats.completed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::FIRST_CHUNK;
    use crate::router::VolumeSpec;

    const CYCLES: u64 = 100_000;

    #[test]
    fn submit_and_drop_cycles_leave_the_board_at_its_first_chunk() {
        let server =
            ServerBuilder::new().volume(0, 1024).range_blocks(1024).queue_depth(4).start(|plan| {
                let sink = adapt_array::CountingArray::new(plan.lss.array_config());
                Box::new(
                    adapt_lss::Lss::builder(adapt_placement::SepGc::new(), sink)
                        .config(plan.lss)
                        .build(),
                )
            });
        let client = server.client();
        for i in 0..CYCLES {
            drop(client.submit_backoff(Request::write(0, 0, i % 1024, 1)).unwrap());
        }
        let board = Arc::clone(&client.shared.queues[0].board);
        let report = server.shutdown();
        assert!(report.balanced());
        assert_eq!(report.total_completed(), CYCLES);
        assert_eq!(board.chunks(), 1, "a dropped ticket's slot was never freed");
        // Every slot is free again: the first chunk serves all of them.
        let _all: Vec<_> = (0..FIRST_CHUNK).map(|_| board.claim()).collect();
        assert_eq!(board.chunks(), 1);
    }

    #[test]
    fn busy_rejections_leave_the_board_at_its_first_chunk() {
        // A queue nobody drains: the fifth submit and all after it are Busy.
        let client = Client {
            shared: Arc::new(Shared {
                router: ShardRouter::new(1, 1024, &[VolumeSpec { id: 0, blocks: 1024 }]),
                governor: TenantGovernor::unlimited(),
                queues: vec![ShardQueue::new(4)],
                depth: 4,
                ordered: false,
            }),
        };
        let held: Vec<_> =
            (0..4).map(|lba| client.submit(Request::write(0, 0, lba, 1)).unwrap()).collect();
        for i in 0..CYCLES {
            let busy = client.submit(Request::write(0, 0, i % 1024, 1));
            assert_eq!(busy.unwrap_err(), SubmitError::Busy { shard: 0, depth: 4 });
        }
        assert_eq!(client.stats()[0].rejected_busy, CYCLES);
        assert_eq!(client.queue_depths(), vec![4]);
        assert_eq!(client.shared.queues[0].board.chunks(), 1, "a rejected submit kept its slot");
        drop(held);
    }
}

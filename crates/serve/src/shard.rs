//! One shard: a bounded command queue drained by a dedicated thread that
//! owns an ADAPT engine.
//!
//! The shard thread is the only code that touches its engine — no shared
//! lock, no cross-shard coordination. Each drained batch runs the fixed
//! pipeline *validate → apply → group-commit barrier → complete*: reads
//! complete at apply, writes and trims pend until a
//! [`ShardEngine::sync`] barrier covers them (so on a durable engine an
//! acked write is a WAL-committed write). The barrier fires when the
//! pending set reaches the group-commit window or the queue momentarily
//! drains — batching when loaded, never stalling acks when idle.
//!
//! The apply stage works in *runs*: consecutive same-volume ops from one
//! drain. Each op is one engine call ([`ShardEngine::apply_write`],
//! [`apply_read`](ShardEngine::apply_read) or
//! [`apply_trim`](ShardEngine::apply_trim)), but the two metric probes
//! for per-volume attribution and the delivery of the completions a run
//! produces at apply are paid once per run. Runs break at volume
//! boundaries, so attribution stays exact.
//!
//! Two drain modes:
//!
//! - **FIFO** (serving): commands apply in queue order; the thread runs
//!   engine GC inline with queue idle time.
//! - **Ordered** (replay): every request carries a dense per-shard
//!   sequence number and applies strictly in that order, so the engine
//!   sees one canonical op stream *no matter how many client threads
//!   submitted it* — the bit-identical-telemetry property the
//!   determinism suite checks. An op that arrives in order is staged
//!   directly; only a genuinely early arrival waits in the reorder
//!   buffer. Idle GC is disabled (engine-inline GC keeps collection
//!   points canonical too).
//!
//! Engine timestamps are synthesized from the applied-op count
//! (`(applied+1) × 1 µs`), never from wall time, which makes
//! completions' `version` fields — and everything the engine derives
//! from its clock — reproducible.
//!
//! **Wake protocol.** While both sides are running, submit → completion
//! makes no system call: a side notifies the other's condvar only when
//! the other recorded, under the mutex both take, that it is about to
//! sleep. A shard thread that runs out of work first polls an atomic
//! mirror of "the queue holds commands" and "the queue is closed", on a
//! cache line of its own, for up to [`SPIN_NS`](crate::SPIN_NS): a
//! request that arrives in that window is picked up without a `futex`
//! wake or an idle vCPU's halt exit. Only then does it set `parked` in
//! [`ShardQueue`] and wait; a producer notifies only if its push cleared
//! the flag. A ticket waiter spins and parks the same way on its
//! [`OneShot`] cell. The spin counts as idle time, outside
//! [`ShardReport::busy_ns`]. The drain loop's "is the queue empty?"
//! probes read the same mirror, not the producers' mutex.

use crate::api::{Completion, OneShot, OpKind, Request, ServeError, VolumeId};
use crate::spin::spin_until;
use adapt_array::{ArrayError, ArraySink};
use adapt_lss::{EngineError, Lba, Lss, LssMetrics, PlacementPolicy, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The engine surface a shard thread drives. Implemented for every
/// `Lss<P, S>`; the indirection keeps `adapt-serve` policy-agnostic (the
/// policy enum and its monomorphized dispatch live in `adapt-sim`, which
/// sits *above* this crate).
pub trait ShardEngine: Send {
    /// Apply one write request at engine time `ts_us`.
    fn apply_write(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError>;
    /// Apply one read request.
    fn apply_read(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError>;
    /// Apply one trim request.
    fn apply_trim(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError>;
    /// Group-commit barrier: make every applied op durable. Must be a
    /// no-op `Ok(())` on engines without a WAL.
    fn sync(&mut self) -> Result<(), EngineError>;
    /// Flush open chunks (shutdown path).
    fn flush_all(&mut self) -> Result<(), EngineError>;
    /// Whether background GC has work.
    fn gc_needed(&self) -> bool;
    /// One GC increment; `Ok(true)` if a segment was reclaimed.
    fn gc_step(&mut self) -> Result<bool, EngineError>;
    /// Cheap scalar metrics snapshot for per-volume attribution.
    fn probe(&self) -> Probe;
    /// Full telemetry snapshot.
    fn telemetry(&mut self) -> TelemetrySnapshot;
    /// Resident bytes of the placement policy's state.
    fn policy_memory_bytes(&self) -> u64 {
        0
    }
    /// Resident bytes of the whole engine (index + policy).
    fn engine_memory_bytes(&self) -> u64 {
        0
    }
}

impl<P: PlacementPolicy + Send, S: ArraySink + Send> ShardEngine for Lss<P, S> {
    fn apply_write(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError> {
        self.try_write_request(ts_us, lba, blocks)
    }

    fn apply_read(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError> {
        self.try_read_request(ts_us, lba, blocks)
    }

    fn apply_trim(&mut self, ts_us: u64, lba: Lba, blocks: u32) -> Result<(), EngineError> {
        self.try_trim(ts_us, lba, blocks)
    }

    fn sync(&mut self) -> Result<(), EngineError> {
        self.sync_wal()
    }

    fn flush_all(&mut self) -> Result<(), EngineError> {
        self.try_flush_all()
    }

    fn gc_needed(&self) -> bool {
        self.needs_gc()
    }

    fn gc_step(&mut self) -> Result<bool, EngineError> {
        self.try_gc_step()
    }

    fn probe(&self) -> Probe {
        Probe::capture(self.metrics())
    }

    fn telemetry(&mut self) -> TelemetrySnapshot {
        Lss::telemetry(self)
    }

    fn policy_memory_bytes(&self) -> u64 {
        self.policy().memory_bytes() as u64
    }

    fn engine_memory_bytes(&self) -> u64 {
        self.memory_bytes() as u64
    }
}

macro_rules! probe_fields {
    ($($field:ident),+ $(,)?) => {
        /// Scalar [`LssMetrics`] snapshot taken around each applied op;
        /// the delta is credited to the issuing volume (or to the shard's
        /// background bucket for idle GC and shutdown flushes), yielding
        /// deterministic per-volume traffic attribution without touching
        /// the engine's own accounting.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Probe {
            $(pub(crate) $field: u64,)+
        }

        impl Probe {
            pub(crate) fn capture(m: &LssMetrics) -> Self {
                Self { $($field: m.$field,)+ }
            }

            /// Credit `after − before` into `into` (same field names as
            /// [`LssMetrics`], histogram fields excluded).
            pub(crate) fn attribute(into: &mut LssMetrics, before: &Probe, after: &Probe) {
                $(into.$field += after.$field - before.$field;)+
            }
        }
    };
}

probe_fields!(
    host_write_bytes,
    user_bytes,
    gc_bytes,
    shadow_bytes,
    pad_bytes,
    chunks_flushed,
    padded_chunks,
    gc_passes,
    segments_reclaimed,
    blocks_migrated,
    buffer_absorbed_blocks,
    host_read_bytes,
    array_read_bytes,
    buffer_read_blocks,
    trimmed_blocks,
    degraded_reads,
);

/// An accepted request bound for a shard.
#[derive(Debug)]
pub(crate) struct OpCommand {
    pub(crate) request: Request,
    /// Shard-local address computed by the router at submit time.
    pub(crate) local_lba: u64,
    pub(crate) slot: Arc<OneShot<Completion>>,
}

#[derive(Debug)]
pub(crate) enum Command {
    Op(OpCommand),
    /// Drain + barrier, then report a telemetry snapshot.
    Telemetry(Arc<OneShot<TelemetrySnapshot>>),
}

#[derive(Debug)]
pub(crate) enum PushError {
    /// Queue at capacity (the command was dropped; the caller still
    /// holds the completion slot).
    Full,
    /// Queue closed (shutdown).
    Closed,
}

/// Bounded MPSC command queue — a mutex-guarded `VecDeque`: many clients
/// push, one shard thread pops — plus the shard's live counters, the
/// other state the two sides share.
#[derive(Debug)]
pub(crate) struct ShardQueue {
    depth: usize,
    state: Mutex<QueueInner>,
    cv: Condvar,
    /// What the shard thread polls without the lock.
    mirror: Mirror,
    pub(crate) stats: ShardStats,
}

/// Lock-free copies of "the queue is not empty" and `closed`, stored
/// under the mutex whenever they change — and only then: a store, even of
/// the value already there, takes the line from a spinning shard thread,
/// so a producer that pushed onto a non-empty queue would pay a cache miss
/// for nothing. The shard thread reads them without the lock: `queued` to
/// decide "barrier now or after the next drain" and "keep collecting",
/// both to end its spin before it parks. They publish no data (commands
/// are only ever taken under the mutex), so `Relaxed` is enough: a stale
/// value merely shifts a barrier or lets the spin run on into the locked
/// re-check. Their own cache line keeps a spinning shard thread's reads
/// off the line of the mutex every producer takes.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Mirror {
    queued: AtomicBool,
    closed: AtomicBool,
}

#[derive(Debug)]
struct QueueInner {
    q: VecDeque<Command>,
    closed: bool,
    /// The shard thread is asleep on `cv` (or committed to sleep: it sets
    /// this under the mutex and the wait releases the mutex atomically).
    /// Whoever makes the wait condition true clears it under the same
    /// mutex and owes exactly one notify, so no wake-up is lost; a
    /// spurious wake-up re-checks the condition and sets it again.
    parked: bool,
}

impl ShardQueue {
    pub(crate) fn new(depth: usize) -> Arc<Self> {
        Arc::new(Self {
            depth,
            state: Mutex::new(QueueInner {
                q: VecDeque::with_capacity(depth),
                closed: false,
                parked: false,
            }),
            cv: Condvar::new(),
            mirror: Mirror::default(),
            stats: ShardStats::default(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.state.lock().expect("shard queue poisoned: a thread panicked while holding it")
    }

    /// Release the queue after a change the shard thread waits for (a
    /// push, or close) and wake it only if it parked.
    fn publish(&self, mut s: MutexGuard<'_, QueueInner>) {
        if s.q.len() == 1 {
            self.mirror.queued.store(true, Ordering::Relaxed);
        }
        let wake = std::mem::take(&mut s.parked);
        drop(s);
        if wake {
            self.stats.client.wakeups.fetch_add(1, Ordering::Relaxed);
            self.cv.notify_one();
        }
    }

    /// Non-blocking push of a data-path command, subject to the depth
    /// bound; counts it as submitted.
    pub(crate) fn try_push(&self, cmd: Command) -> Result<(), PushError> {
        let mut s = self.lock();
        if s.closed {
            return Err(PushError::Closed);
        }
        if s.q.len() >= self.depth {
            return Err(PushError::Full);
        }
        s.q.push_back(cmd);
        // Counted before the shard thread can pop the command (it needs
        // this mutex to), so its final snapshot never reads a completed
        // op as not yet submitted.
        self.stats.client.submitted.fetch_add(1, Ordering::Relaxed);
        self.publish(s);
        Ok(())
    }

    /// Push a control command, exempt from the depth bound (control must
    /// not contend with data-path backpressure).
    pub(crate) fn push_control(&self, cmd: Command) -> bool {
        let mut s = self.lock();
        if s.closed {
            return false;
        }
        s.q.push_back(cmd);
        self.publish(s);
        true
    }

    /// Close the queue: future pushes fail, the shard drains what's left.
    pub(crate) fn close(&self) {
        let mut s = self.lock();
        s.closed = true;
        self.mirror.closed.store(true, Ordering::Relaxed);
        self.publish(s);
    }

    /// Commands queued right now (takes the producers' mutex).
    pub(crate) fn len(&self) -> usize {
        self.lock().q.len()
    }

    /// Whether the queue holds commands, as of the last push or drain,
    /// without the lock.
    fn queued(&self) -> bool {
        self.mirror.queued.load(Ordering::Relaxed)
    }

    /// Whether a blocking [`pop_all`](Self::pop_all) would return at once
    /// (something is queued, or the queue is closed), as of the mirror.
    fn has_news(&self) -> bool {
        self.queued() || self.mirror.closed.load(Ordering::Relaxed)
    }

    /// Drain everything queued into `into`. Blocks while open and empty
    /// when `block`, first spinning for up to [`SPIN_NS`](crate::SPIN_NS)
    /// on the mirror and then parking; returns `true` once the queue is
    /// closed *and* this call returned nothing (the shard can exit after
    /// local cleanup).
    fn pop_all(&self, into: &mut Vec<Command>, block: bool) -> bool {
        if block {
            spin_until(|| self.has_news());
        }
        let mut s = self.lock();
        if block {
            while s.q.is_empty() && !s.closed {
                s.parked = true;
                s = self
                    .cv
                    .wait(s)
                    .expect("shard queue poisoned: a thread panicked while holding it");
            }
        }
        if !s.q.is_empty() {
            into.extend(s.q.drain(..));
            self.mirror.queued.store(false, Ordering::Relaxed);
        }
        s.closed && into.is_empty()
    }
}

/// Counters written on the submit path, by client threads.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct ClientCounters {
    /// Ops accepted into the queue.
    pub(crate) submitted: AtomicU64,
    /// Ops rejected with `Busy` (after admission; token refunded).
    pub(crate) rejected_busy: AtomicU64,
    /// Ops rejected by tenant admission control.
    pub(crate) rejected_throttled: AtomicU64,
    /// Notifies issued to a parked shard thread.
    pub(crate) wakeups: AtomicU64,
}

/// Counters written by the shard thread.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct DrainCounters {
    /// Completions delivered (success or failure).
    pub(crate) completed: AtomicU64,
    /// Completions delivered with an error result.
    pub(crate) failed_ops: AtomicU64,
    /// Group-commit barriers executed.
    pub(crate) syncs: AtomicU64,
    /// Idle GC increments executed.
    pub(crate) gc_steps: AtomicU64,
    /// Notifies issued to a parked ticket (or telemetry) waiter.
    pub(crate) wakeups: AtomicU64,
}

/// Live shard counters, shared between clients (submit side) and the
/// shard thread; each side's counters sit on their own cache line so
/// counting an op never bounces a line between the two threads. The
/// shutdown gate checks `submitted == completed`: a lost completion is a
/// serving-layer bug the queue accounting catches.
#[derive(Debug, Default)]
pub struct ShardStats {
    pub(crate) client: ClientCounters,
    pub(crate) drain: DrainCounters,
}

impl ShardStats {
    pub(crate) fn snapshot(&self) -> ShardStatsSnapshot {
        let (c, d) = (&self.client, &self.drain);
        ShardStatsSnapshot {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected_busy: c.rejected_busy.load(Ordering::Relaxed),
            rejected_throttled: c.rejected_throttled.load(Ordering::Relaxed),
            completed: d.completed.load(Ordering::Relaxed),
            failed_ops: d.failed_ops.load(Ordering::Relaxed),
            syncs: d.syncs.load(Ordering::Relaxed),
            gc_steps: d.gc_steps.load(Ordering::Relaxed),
            wakeups: c.wakeups.load(Ordering::Relaxed) + d.wakeups.load(Ordering::Relaxed),
        }
    }
}

/// Serializable view of [`ShardStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStatsSnapshot {
    /// Ops accepted into the queue.
    pub submitted: u64,
    /// Ops rejected with `Busy`.
    pub rejected_busy: u64,
    /// Ops rejected by admission control.
    pub rejected_throttled: u64,
    /// Completions delivered.
    pub completed: u64,
    /// Completions that carried an error.
    pub failed_ops: u64,
    /// Group-commit barriers.
    pub syncs: u64,
    /// Idle GC increments.
    pub gc_steps: u64,
    /// Condvar notifies actually issued, either direction: a push (or
    /// close) that found the shard thread parked, a completion that found
    /// its waiter parked. Each is one `futex` system call; a notify is
    /// never issued to a side that is running.
    pub wakeups: u64,
}

impl ShardStatsSnapshot {
    /// Every accepted op produced exactly one completion.
    pub fn balanced(&self) -> bool {
        self.submitted == self.completed
    }
}

/// Final state of one shard, returned by shutdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard id.
    pub shard: u32,
    /// Engine telemetry at shutdown (post flush).
    pub telemetry: TelemetrySnapshot,
    /// Per-volume attributed traffic, sorted by volume id. Histogram
    /// fields stay zero (attribution covers the scalar counters).
    pub per_volume: Vec<(VolumeId, LssMetrics)>,
    /// Traffic not attributable to a volume: idle GC and shutdown flush.
    pub background: LssMetrics,
    /// Counter snapshot.
    pub stats: ShardStatsSnapshot,
    /// Ops applied to the engine.
    pub applied_ops: u64,
    /// Wall time the shard thread spent doing work (apply, barriers,
    /// idle GC) — excludes waiting on an empty queue, both the spin
    /// before the park and the park itself. On a machine with
    /// ≥ one core per shard this is the shard's service time; the
    /// saturation bench divides total ops by the *maximum* shard busy
    /// time to get the critical-path throughput of the sharded array,
    /// which measures scaling independently of how many cores the host
    /// actually has. Not covered by the determinism contract.
    pub busy_ns: u64,
    /// Resident bytes of the shard's placement-policy state at shutdown.
    pub policy_memory_bytes: u64,
    /// Resident bytes of the shard's whole engine at shutdown.
    pub engine_memory_bytes: u64,
    /// True if the shard fail-stopped on a fatal engine error.
    pub failed: bool,
}

/// Configuration + state owned by one shard thread.
pub(crate) struct ShardWorker {
    pub(crate) shard: u32,
    pub(crate) engine: Box<dyn ShardEngine>,
    /// Command queue and live counters, shared with the clients.
    pub(crate) queue: Arc<ShardQueue>,
    /// Group-commit window (pending ops that trigger a barrier).
    pub(crate) window: usize,
    /// Ordered-replay mode (strict seq order, no idle GC).
    pub(crate) ordered: bool,
    /// Whether barriers confer durability (engine has a WAL).
    pub(crate) durable: bool,
}

/// Fatal errors fail-stop the shard (its state can no longer serve
/// correct acks); everything else fails only the op that hit it.
fn is_fatal(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::Wal(_)
            | EngineError::IndexCorruption { .. }
            | EngineError::OutOfSpace { .. }
            | EngineError::Array(ArrayError::Storage { .. })
    )
}

struct WorkerState {
    applied: u64,
    /// Applied but unsynced writes/trims awaiting the next barrier.
    pending: Vec<(OpCommand, u64)>,
    /// Ordered mode: genuinely early arrivals keyed by sequence. Never
    /// holds `next_seq` itself — an in-order op is staged on arrival and
    /// pulls its buffered successors with it.
    reorder: BTreeMap<u64, OpCommand>,
    next_seq: u64,
    per_volume: BTreeMap<VolumeId, LssMetrics>,
    background: LssMetrics,
    failed: bool,
    /// Scratch reused across drain cycles: consecutive same-volume ops
    /// accumulate in `run`; `done` collects the completions a run
    /// delivers at apply (reads, failures).
    run: Vec<OpCommand>,
    done: Vec<(OpCommand, Completion)>,
}

impl ShardWorker {
    /// Drain the queue until closed, then flush and report.
    pub(crate) fn run(mut self) -> ShardReport {
        let mut st = WorkerState {
            applied: 0,
            pending: Vec::with_capacity(self.window),
            reorder: BTreeMap::new(),
            next_seq: 0,
            per_volume: BTreeMap::new(),
            background: LssMetrics::default(),
            failed: false,
            run: Vec::new(),
            done: Vec::new(),
        };
        let mut buf: Vec<Command> = Vec::new();
        let mut busy_ns: u64 = 0;
        loop {
            let can_gc = !st.failed && !self.ordered && self.engine.gc_needed();
            let block = st.pending.is_empty() && !can_gc;
            let drained_closed = self.queue.pop_all(&mut buf, block);
            let t0 = std::time::Instant::now();
            for cmd in buf.drain(..) {
                match cmd {
                    Command::Op(op) if self.ordered => self.stage_ordered(&mut st, op),
                    Command::Op(op) => self.stage_run(&mut st, op),
                    Command::Telemetry(cell) => {
                        self.apply_run(&mut st);
                        self.barrier(&mut st);
                        if cell.fill(self.engine.telemetry()) {
                            self.queue.stats.drain.wakeups.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            self.apply_run(&mut st);
            if st.pending.len() >= self.window || (!st.pending.is_empty() && !self.queue.queued()) {
                self.barrier(&mut st);
            }
            if drained_closed {
                busy_ns += t0.elapsed().as_nanos() as u64;
                break;
            }
            if can_gc {
                // At least one increment per drain cycle — a saturated
                // queue must not starve collection into OutOfSpace — and
                // keep collecting while the queue stays empty.
                loop {
                    self.idle_gc(&mut st);
                    if st.failed || !self.engine.gc_needed() || self.queue.queued() {
                        break;
                    }
                }
            }
            busy_ns += t0.elapsed().as_nanos() as u64;
        }
        // Sequence gaps a client abandoned: accepted ops must still
        // complete (the queue-accounting gate counts them).
        let orphans = std::mem::take(&mut st.reorder);
        self.deliver(orphans.into_values().map(|op| {
            self.failure(op, 0, ServeError::Engine("sequence gap unresolved at shutdown".into()))
        }));
        let t0 = std::time::Instant::now();
        self.barrier(&mut st);
        if !st.failed {
            let before = self.engine.probe();
            let flush = self.engine.flush_all().and_then(|_| {
                if self.durable {
                    self.engine.sync()
                } else {
                    Ok(())
                }
            });
            Probe::attribute(&mut st.background, &before, &self.engine.probe());
            if flush.is_err() {
                st.failed = true;
            }
        }
        busy_ns += t0.elapsed().as_nanos() as u64;
        ShardReport {
            shard: self.shard,
            telemetry: self.engine.telemetry(),
            per_volume: st.per_volume.into_iter().collect(),
            background: st.background,
            stats: self.queue.stats.snapshot(),
            applied_ops: st.applied,
            busy_ns,
            policy_memory_bytes: self.engine.policy_memory_bytes(),
            engine_memory_bytes: self.engine.engine_memory_bytes(),
            failed: st.failed,
        }
    }

    /// Ordered mode: stage `op` if it is the next in sequence (pulling in
    /// any buffered successors it unblocks), buffer it if it is early,
    /// fail it if its sequence was already applied. A repeat of the
    /// awaited sequence is always `stale`: the first arrival wins whether
    /// or not both copies land in one drain.
    fn stage_ordered(&mut self, st: &mut WorkerState, op: OpCommand) {
        let Some(seq) = op.request.seq else {
            self.fail(op, ServeError::Engine("ordered mode requires seq".into()));
            return;
        };
        match seq.cmp(&st.next_seq) {
            std::cmp::Ordering::Less => {
                self.fail(op, ServeError::Engine(format!("stale sequence {seq}")));
            }
            std::cmp::Ordering::Greater => {
                if let Some(prev) = st.reorder.insert(seq, op) {
                    self.fail(prev, ServeError::Engine(format!("duplicate sequence {seq}")));
                }
            }
            std::cmp::Ordering::Equal => {
                st.next_seq += 1;
                self.stage_run(st, op);
                while let Some(next) = st.reorder.remove(&st.next_seq) {
                    st.next_seq += 1;
                    self.stage_run(st, next);
                }
            }
        }
    }

    /// Stage `op` into the current run, first applying the run if `op`
    /// would cross a volume boundary (per-volume attribution needs
    /// single-volume runs).
    fn stage_run(&mut self, st: &mut WorkerState, op: OpCommand) {
        if st.run.last().is_some_and(|prev| prev.request.volume != op.request.volume) {
            self.apply_run(st);
        }
        st.run.push(op);
    }

    /// Engine µs that elapse per applied op (the deterministic clock).
    const CLOCK_STEP_US: u64 = 1;

    /// Apply the staged run of same-volume commands, one engine call per
    /// op, in order. Op `i` of the shard runs at `(i + 1) × CLOCK_STEP_US`
    /// on the applied-op clock. One before/after probe pair per run
    /// credits the issuing volume (the probed counters are monotone, so
    /// per-op deltas telescope). A failed op completes alone with its
    /// error; a fatal one also fail-stops the shard, and every later op of
    /// the run fails with `ShardFailed` at version 0, unapplied.
    fn apply_run(&mut self, st: &mut WorkerState) {
        if st.run.is_empty() {
            return;
        }
        let shard_failed = ServeError::ShardFailed { shard: self.shard };
        if st.failed {
            self.deliver(st.run.drain(..).map(|op| self.failure(op, 0, shard_failed.clone())));
            return;
        }
        let volume = st.run[0].request.volume;
        let before = self.engine.probe();
        let mut fatal = false;
        for op in st.run.drain(..) {
            if fatal {
                st.done.push(self.failure(op, 0, shard_failed.clone()));
                continue;
            }
            st.applied += 1;
            let ts = st.applied * Self::CLOCK_STEP_US;
            let (kind, lba, blocks) = (op.request.kind, op.local_lba, op.request.blocks);
            let result = match kind {
                OpKind::Write => self.engine.apply_write(ts, lba, blocks),
                OpKind::Read => self.engine.apply_read(ts, lba, blocks),
                OpKind::Trim => self.engine.apply_trim(ts, lba, blocks),
            };
            match result {
                Err(e) => {
                    fatal = is_fatal(&e);
                    st.done.push(self.failure(op, ts, ServeError::engine(&e)));
                }
                Ok(()) if kind == OpKind::Read => {
                    st.done.push(self.completion(op, ts, false, Ok(())));
                }
                Ok(()) => st.pending.push((op, ts)),
            }
        }
        Probe::attribute(st.per_volume.entry(volume).or_default(), &before, &self.engine.probe());
        self.deliver(st.done.drain(..));
        if fatal {
            self.fail_stop(st);
        }
    }

    /// Group-commit barrier: sync the WAL, then release pending acks.
    fn barrier(&mut self, st: &mut WorkerState) {
        if st.pending.is_empty() {
            return;
        }
        if st.failed {
            self.fail_stop(st);
            return;
        }
        match self.engine.sync() {
            Ok(()) => {
                self.queue.stats.drain.syncs.fetch_add(1, Ordering::Relaxed);
                self.deliver(
                    st.pending
                        .drain(..)
                        .map(|(op, ts)| self.completion(op, ts, self.durable, Ok(()))),
                );
            }
            Err(_) => self.fail_stop(st),
        }
    }

    /// Fatal engine error: every in-flight op fails, the engine is never
    /// touched again, but the thread keeps draining so no client hangs.
    fn fail_stop(&mut self, st: &mut WorkerState) {
        st.failed = true;
        let shard_failed = ServeError::ShardFailed { shard: self.shard };
        self.deliver(
            st.pending.drain(..).map(|(op, ts)| self.failure(op, ts, shard_failed.clone())),
        );
    }

    fn idle_gc(&mut self, st: &mut WorkerState) {
        let before = self.engine.probe();
        let r = self.engine.gc_step();
        Probe::attribute(&mut st.background, &before, &self.engine.probe());
        self.queue.stats.drain.gc_steps.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = r {
            if is_fatal(&e) {
                self.fail_stop(st);
            }
        }
    }

    /// Pair `op` with its completion, ready for [`deliver`](Self::deliver).
    fn completion(
        &self,
        op: OpCommand,
        version: u64,
        durable: bool,
        result: Result<(), ServeError>,
    ) -> (OpCommand, Completion) {
        let c = Completion { shard: self.shard, request: op.request, version, durable, result };
        (op, c)
    }

    /// A failed op: never durable.
    fn failure(&self, op: OpCommand, version: u64, e: ServeError) -> (OpCommand, Completion) {
        self.completion(op, version, false, Err(e))
    }

    /// Fail one op that never reached the engine (version 0).
    fn fail(&self, op: OpCommand, e: ServeError) {
        self.deliver(std::iter::once(self.failure(op, 0, e)));
    }

    /// Hand a batch of completions to their tickets. `completed` moves
    /// once per batch and `failed_ops` once per failure, both *before*
    /// the ticket in question is filled, so a caller that harvested n
    /// completions (f of them failed) never reads a `completed` below n
    /// or a `failed_ops` below f (the ticket's mutex orders the two).
    fn deliver(&self, batch: impl ExactSizeIterator<Item = (OpCommand, Completion)>) {
        if batch.len() == 0 {
            return;
        }
        let stats = &self.queue.stats.drain;
        stats.completed.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut woken = 0u64;
        for (op, c) in batch {
            if c.result.is_err() {
                stats.failed_ops.fetch_add(1, Ordering::Relaxed);
            }
            woken += u64::from(op.slot.fill(c));
        }
        if woken > 0 {
            stats.wakeups.fetch_add(woken, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> Command {
        Command::Telemetry(OneShot::new())
    }

    #[test]
    fn queue_respects_depth_and_close() {
        let q = ShardQueue::new(2);
        // The depth bound does not look at the command kind.
        assert!(q.try_push(cell()).is_ok());
        assert!(q.try_push(cell()).is_ok());
        assert!(matches!(q.try_push(cell()), Err(PushError::Full)));
        assert!(q.push_control(cell()), "control pushes bypass the bound");
        assert_eq!(q.len(), 3);
        q.close();
        assert!(matches!(q.try_push(cell()), Err(PushError::Closed)));
        let mut buf = Vec::new();
        assert!(!q.pop_all(&mut buf, true), "closed but items remain");
        assert_eq!(buf.len(), 3);
        assert!(!q.queued(), "the mirror follows the drain");
        buf.clear();
        assert!(q.pop_all(&mut buf, true), "closed and drained");
        assert_eq!(q.stats.snapshot().wakeups, 0, "the consumer never parked");
    }

    #[test]
    fn pushes_without_parked_consumer_issue_no_notify() {
        let q = ShardQueue::new(64);
        for _ in 0..64 {
            assert!(q.try_push(cell()).is_ok());
        }
        assert!(q.push_control(cell()));
        let mut buf = Vec::new();
        // Non-blocking and non-empty blocking drains do not park.
        assert!(!q.pop_all(&mut buf, false));
        assert!(q.try_push(cell()).is_ok());
        assert!(!q.pop_all(&mut buf, true));
        assert_eq!(buf.len(), 66);
        assert_eq!(q.stats.snapshot().wakeups, 0);
    }

    /// Spawn a consumer that blocks in `pop_all` and return once it has
    /// committed to sleep (the flag is set under the queue mutex right
    /// before the wait releases it).
    fn parked_consumer(q: &Arc<ShardQueue>) -> std::thread::JoinHandle<(usize, bool)> {
        let consumer = {
            let q = Arc::clone(q);
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                let closed = q.pop_all(&mut buf, true);
                (buf.len(), closed)
            })
        };
        while !q.lock().parked {
            std::thread::yield_now();
        }
        consumer
    }

    #[test]
    fn parked_consumer_costs_exactly_one_notify() {
        let q = ShardQueue::new(8);
        let consumer = parked_consumer(&q);
        assert!(q.try_push(cell()).is_ok());
        assert_eq!(q.stats.snapshot().wakeups, 1, "the push that cleared the flag notifies");
        // The consumer is awake (or about to be): further pushes are free.
        assert!(q.try_push(cell()).is_ok());
        assert!(q.push_control(cell()));
        assert_eq!(q.stats.snapshot().wakeups, 1);
        let (n, closed) = consumer.join().unwrap();
        assert!((1..=3).contains(&n) && !closed);
        assert!(!q.lock().parked);
    }

    #[test]
    fn close_wakes_parked_consumer() {
        let q = ShardQueue::new(8);
        let consumer = parked_consumer(&q);
        q.close();
        assert_eq!(consumer.join().unwrap(), (0, true));
        assert_eq!(q.stats.snapshot().wakeups, 1);
        q.close();
        assert_eq!(q.stats.snapshot().wakeups, 1, "nobody parked: closing again is silent");
    }

    #[test]
    fn close_ends_the_spin_on_an_empty_queue() {
        let q = ShardQueue::new(8);
        assert!(!q.has_news());
        assert!(q.try_push(cell()).is_ok());
        assert!(q.has_news(), "a push ends the spin");
        let mut buf = Vec::new();
        assert!(!q.pop_all(&mut buf, false));
        assert!(!q.has_news(), "drained: the spin would run on");
        q.close();
        assert!(q.has_news(), "close ends the spin although nothing is queued");
    }

    #[test]
    fn the_spun_on_mirror_sits_off_the_mutex_line() {
        let q = ShardQueue::new(8);
        let line = |p: usize| p / 64;
        let mirror = std::ptr::from_ref(&q.mirror) as usize;
        let mutex = std::ptr::from_ref(&q.state) as usize;
        let mutex_end = mutex + std::mem::size_of_val(&q.state) - 1;
        assert_eq!(mirror % 64, 0);
        assert_eq!(std::mem::size_of::<Mirror>(), 64, "the mirror fills its line alone");
        assert!(line(mirror) != line(mutex) && line(mirror) != line(mutex_end));
    }

    #[test]
    fn counters_of_the_two_sides_sit_on_different_cache_lines() {
        let s = ShardStats::default();
        let client = std::ptr::from_ref(&s.client) as usize;
        let drain = std::ptr::from_ref(&s.drain) as usize;
        assert_eq!(client % 64, 0);
        assert_eq!(drain % 64, 0);
        assert!(client.abs_diff(drain) >= 64);
    }

    #[test]
    fn probe_attributes_deltas() {
        let mut m = LssMetrics { host_write_bytes: 100, gc_bytes: 7, ..Default::default() };
        let before = Probe::capture(&m);
        m.host_write_bytes = 150;
        m.gc_bytes = 10;
        let after = Probe::capture(&m);
        let mut vol = LssMetrics::default();
        Probe::attribute(&mut vol, &before, &after);
        assert_eq!(vol.host_write_bytes, 50);
        assert_eq!(vol.gc_bytes, 3);
        assert_eq!(vol.user_bytes, 0);
    }

    #[test]
    fn stats_balanced_gate() {
        let s = ShardStatsSnapshot { submitted: 5, completed: 5, ..Default::default() };
        assert!(s.balanced());
        let s = ShardStatsSnapshot { submitted: 5, completed: 4, ..Default::default() };
        assert!(!s.balanced());
    }

    #[test]
    fn fatal_classification() {
        assert!(is_fatal(&EngineError::IndexCorruption { lba: 0, detail: "x".into() }));
        let loc = adapt_array::ChunkLocation { stripe: 0, device: 0, column: 0 };
        assert!(!is_fatal(&EngineError::Array(ArrayError::TransientRead { loc })));
    }
}

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
//! takes no lock and makes no system call. A producer claims a ring cell
//! with one CAS on `tail` and publishes it by the cell's sequence; the
//! shard thread drains published cells and fills each request's slot on
//! the shard's completion board by CAS. A shard thread that runs out
//! of work polls the cell at `head` for up to [`SPIN_NS`](crate::SPIN_NS):
//! a request that arrives in that window is picked up without a `futex`
//! wake or an idle vCPU's halt exit. Only then does it park, by a Dekker
//! handshake: it raises `parked`, fences, and re-checks the ring; a
//! producer publishes, fences, and notifies only if it finds the flag
//! raised. A ticket waiter spins and parks the same way on its board slot.
//! The spin counts as idle time, outside [`ShardReport::busy_ns`]. The
//! drain loop's "is the queue empty?" probes read the cell at `head`.

use crate::api::{OpKind, Request, ServeError, VolumeId};
use crate::board::{lock, Board, Outcome, Padded};
use crate::spin::spin_until;
use adapt_array::{ArrayError, ArraySink};
use adapt_lss::{EngineError, Lba, Lss, LssMetrics, PlacementPolicy, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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
    /// Completion-board slot, and the low bits of its generation.
    pub(crate) slot: u32,
    pub(crate) generation: u32,
}

impl OpCommand {
    fn encode(&self, words: &[AtomicU64; 6]) {
        let r = &self.request;
        let flags = (r.kind as u64) | (u64::from(r.seq.is_some()) << 2);
        let packed = [
            (u64::from(r.tenant) << 32) | u64::from(r.volume),
            r.lba,
            u64::from(r.blocks) | (flags << 32),
            r.seq.unwrap_or(0),
            self.local_lba,
            (u64::from(self.slot) << 32) | u64::from(self.generation),
        ];
        for (w, v) in words.iter().zip(packed) {
            w.store(v, Ordering::Relaxed);
        }
    }

    fn decode(words: &[AtomicU64; 6]) -> Self {
        let [tv, lba, bf, seq, local_lba, sg] = words.each_ref().map(|w| w.load(Ordering::Relaxed));
        let request = Request {
            tenant: (tv >> 32) as u32,
            volume: tv as u32,
            lba,
            blocks: bf as u32,
            kind: [OpKind::Write, OpKind::Read, OpKind::Trim][(bf >> 32) as usize & 3],
            seq: (bf >> 34 != 0).then_some(seq),
        };
        Self { request, local_lba, slot: (sg >> 32) as u32, generation: sg as u32 }
    }
}

/// Reply channel of a telemetry probe.
pub(crate) type ProbeReply = SyncSender<TelemetrySnapshot>;

#[derive(Debug)]
pub(crate) enum PushError {
    /// Ring at capacity (nothing was queued).
    Full,
    /// Queue closed (shutdown).
    Closed,
}

/// Bit of `tail` that marks the queue closed: a claim racing the close
/// fails its CAS.
const CLOSED: u64 = 1 << 63;

/// A ring cell, alone on its line. Its sequence reads `p` when the cell
/// is free for position `p`, `p + 1` once `p` is published, and `p + cap`
/// once the shard drained it.
#[derive(Debug)]
#[repr(align(64))]
struct Cell {
    seq: AtomicU64,
    words: [AtomicU64; 6],
}

/// What the parked or spinning shard thread waits on besides the ring.
#[derive(Debug)]
struct Signals {
    /// Dekker flag: the shard thread is asleep, or about to re-check and
    /// sleep (see [`ShardQueue::park`]).
    parked: AtomicBool,
    /// Mirror of the `CLOSED` bit, off the `tail` line.
    closed: AtomicBool,
    /// Stamp of the oldest unanswered probe (`u64::MAX`: none).
    probe_at: AtomicU64,
}

/// Bounded MPSC command ring after Vyukov's bounded queue: a producer
/// claims a position with one CAS on `tail`, writes the cell and
/// publishes it by its sequence; the shard thread drains published cells
/// in order, without a lock. Beside it: the shard's completion board, a
/// side queue for telemetry probes, and the live counters.
#[derive(Debug)]
pub(crate) struct ShardQueue {
    /// Configured depth; the ring is rounded up to a power of two ≥ 2.
    depth: usize,
    cells: Box<[Cell]>,
    /// Next position to claim, `| CLOSED` once closed.
    tail: Padded<AtomicU64>,
    /// Next position to drain, written by the shard thread only.
    head: Padded<AtomicU64>,
    signals: Padded<Signals>,
    /// What the shard thread sleeps on past its spin.
    sleep: Mutex<()>,
    cv: Condvar,
    /// Telemetry probes, each stamped with `tail` at push.
    probes: Mutex<VecDeque<(u64, ProbeReply)>>,
    pub(crate) board: Arc<Board>,
    pub(crate) stats: ShardStats,
}

impl ShardQueue {
    pub(crate) fn new(depth: usize) -> Arc<Self> {
        let cells = (0..depth.next_power_of_two().max(2) as u64)
            .map(|p| Cell { seq: AtomicU64::new(p), words: Default::default() })
            .collect();
        let signals = Signals {
            parked: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            probe_at: AtomicU64::new(u64::MAX),
        };
        Arc::new(Self {
            depth,
            cells,
            tail: Padded::default(),
            head: Padded::default(),
            signals: Padded(signals),
            sleep: Mutex::new(()),
            cv: Condvar::new(),
            probes: Mutex::default(),
            board: Arc::new(Board::new()),
            stats: ShardStats::default(),
        })
    }

    fn cell(&self, pos: u64) -> &Cell {
        &self.cells[pos as usize & (self.cells.len() - 1)]
    }

    /// Claim the next position, or fail on a full or closed ring.
    fn claim(&self) -> Result<u64, PushError> {
        let mut t = self.tail.load(Ordering::Relaxed);
        loop {
            if t & CLOSED != 0 {
                return Err(PushError::Closed);
            }
            // A depth that is not a power of two is bounded against `head`.
            let head = || self.head.load(Ordering::Acquire);
            if self.depth < self.cells.len() && t.saturating_sub(head()) >= self.depth as u64 {
                return Err(PushError::Full);
            }
            // Acquire: the shard's reads of the cell's last lap are done.
            let lap = self.cell(t).seq.load(Ordering::Acquire) as i64 - t as i64;
            if lap < 0 {
                return Err(PushError::Full);
            }
            let next = t + 1;
            if lap == 0
                && self
                    .tail
                    .compare_exchange_weak(t, next, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                return Ok(t);
            }
            t = self.tail.load(Ordering::Relaxed);
        }
    }

    /// Fill the claimed cell at `pos`, count the op, publish the cell.
    fn publish(&self, pos: u64, op: &OpCommand) {
        let cell = self.cell(pos);
        op.encode(&cell.words);
        // Counted before the shard thread can see the command, so its
        // final snapshot never reads a completed op as not yet submitted.
        self.stats.client.submitted.fetch_add(1, Ordering::Relaxed);
        cell.seq.store(pos + 1, Ordering::Release);
        self.wake();
    }

    /// Non-blocking push of a data-path command, subject to the depth
    /// bound; counts it as submitted.
    pub(crate) fn try_push(&self, op: &OpCommand) -> Result<(), PushError> {
        let pos = self.claim()?;
        self.publish(pos, op);
        Ok(())
    }

    /// Queue a telemetry probe, exempt from the depth bound. The shard
    /// answers it once it drained every position claimed before it.
    pub(crate) fn push_control(&self, reply: ProbeReply) -> bool {
        let mut probes = lock(&self.probes);
        if self.signals.closed.load(Ordering::Relaxed) {
            return false;
        }
        let stamp = self.tail.load(Ordering::Relaxed) & !CLOSED;
        if probes.is_empty() {
            self.signals.probe_at.store(stamp, Ordering::Relaxed);
        }
        probes.push_back((stamp, reply));
        drop(probes);
        self.wake();
        true
    }

    /// Close the queue: future pushes fail, the shard drains what's left,
    /// claimed cells included. Under the probe lock, so a probe is either
    /// refused or queued before the shard can see the close.
    pub(crate) fn close(&self) {
        let probes = lock(&self.probes);
        self.tail.fetch_or(CLOSED, Ordering::AcqRel);
        self.signals.closed.store(true, Ordering::Release);
        drop(probes);
        self.wake();
    }

    /// Commands queued right now, claimed ones included; no lock.
    pub(crate) fn len(&self) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        (self.tail.load(Ordering::Relaxed) & !CLOSED).saturating_sub(head) as usize
    }

    /// Whether the cell at `head` is published (shard thread only).
    fn queued(&self) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        self.cell(head).seq.load(Ordering::Relaxed) == head + 1
    }

    /// Whether a blocking [`pop_all`](Self::pop_all) would return at once:
    /// a command is published, a probe is answerable, or the queue is
    /// closed with nothing left to drain.
    fn ready(&self) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        self.queued()
            || self.signals.probe_at.load(Ordering::Relaxed) <= head
            || (self.signals.closed.load(Ordering::Relaxed)
                && self.tail.load(Ordering::Relaxed) & !CLOSED == head)
    }

    /// After a change the shard may wait for, notify it only if it
    /// parked. The fence pairs with [`park`](Self::park)'s: either its
    /// re-check sees the change or this load sees its flag.
    fn wake(&self) {
        fence(Ordering::SeqCst);
        if self.signals.parked.load(Ordering::Relaxed) {
            let _sleep = lock(&self.sleep);
            if self.signals.parked.swap(false, Ordering::Relaxed) {
                self.stats.client.wakeups.fetch_add(1, Ordering::Relaxed);
                self.cv.notify_one();
            }
        }
    }

    /// Sleep until [`ready`](Self::ready). Flag and re-check happen under
    /// `sleep`, which a waker takes to clear the flag, so its notify
    /// cannot fall between the check and the wait.
    fn park(&self) {
        let mut sleep = lock(&self.sleep);
        loop {
            self.signals.parked.store(true, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if self.ready() {
                self.signals.parked.store(false, Ordering::Relaxed);
                return;
            }
            sleep = self.cv.wait(sleep).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drain up to one ring's worth of published commands into `into`,
    /// and the probes they answer into `probes`. When `block`, first wait
    /// for [`ready`](Self::ready): spin, then park. Returns `true` once
    /// the queue is closed and this call returned nothing.
    fn pop_all(
        &self,
        into: &mut Vec<OpCommand>,
        probes: &mut Vec<ProbeReply>,
        block: bool,
    ) -> bool {
        if block && !spin_until(|| self.ready()) {
            self.park();
        }
        // Read first: a probe queued before the close is visible below.
        let closed = self.signals.closed.load(Ordering::Acquire);
        let mut head = self.head.load(Ordering::Relaxed);
        for _ in 0..self.cells.len() {
            let cell = self.cell(head);
            if cell.seq.load(Ordering::Acquire) != head + 1 {
                break;
            }
            into.push(OpCommand::decode(&cell.words));
            cell.seq.store(head + self.cells.len() as u64, Ordering::Release);
            head += 1;
        }
        self.head.store(head, Ordering::Release);
        if self.signals.probe_at.load(Ordering::Acquire) <= head {
            let mut queued = lock(&self.probes);
            while queued.front().is_some_and(|&(stamp, _)| stamp <= head) {
                probes.extend(queued.pop_front().map(|(_, reply)| reply));
            }
            let next = queued.front().map_or(u64::MAX, |&(stamp, _)| stamp);
            self.signals.probe_at.store(next, Ordering::Relaxed);
        }
        closed && into.is_empty() && probes.is_empty() && self.len() == 0
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
    /// Unparks issued to a parked ticket waiter.
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
    /// Wake-ups actually issued, either direction: a push, probe or
    /// close that found the shard thread parked (a condvar notify), a
    /// completion that found its waiter parked (an unpark). Each is one
    /// `futex` system call; a side that is running is never woken.
    /// Telemetry replies travel on a channel and are not counted.
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
    done: Vec<(OpCommand, Outcome)>,
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
        let mut buf: Vec<OpCommand> = Vec::new();
        let mut probes: Vec<ProbeReply> = Vec::new();
        let mut busy_ns: u64 = 0;
        loop {
            let can_gc = !st.failed && !self.ordered && self.engine.gc_needed();
            let block = st.pending.is_empty() && !can_gc;
            let drained_closed = self.queue.pop_all(&mut buf, &mut probes, block);
            let t0 = std::time::Instant::now();
            for op in buf.drain(..) {
                if self.ordered {
                    self.stage_ordered(&mut st, op);
                } else {
                    self.stage_run(&mut st, op);
                }
            }
            if !probes.is_empty() {
                self.apply_run(&mut st);
                self.barrier(&mut st);
                let snapshot = self.engine.telemetry();
                for reply in probes.drain(..) {
                    // A prober that gave up has dropped its receiver.
                    let _ = reply.send(snapshot.clone());
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

    /// Pair `op` with its outcome, ready for [`deliver`](Self::deliver).
    fn completion(
        &self,
        op: OpCommand,
        version: u64,
        durable: bool,
        result: Result<(), ServeError>,
    ) -> (OpCommand, Outcome) {
        (op, Outcome { version, durable, result })
    }

    /// A failed op: never durable.
    fn failure(&self, op: OpCommand, version: u64, e: ServeError) -> (OpCommand, Outcome) {
        self.completion(op, version, false, Err(e))
    }

    /// Fail one op that never reached the engine (version 0).
    fn fail(&self, op: OpCommand, e: ServeError) {
        self.deliver(std::iter::once(self.failure(op, 0, e)));
    }

    /// Fill a batch of board slots. `completed` moves once per batch and
    /// `failed_ops` once per failure, both *before* the slot in question
    /// is filled, so a caller that harvested n completions (f of them
    /// failed) never reads a `completed` below n or a `failed_ops` below f
    /// (the fill's release and the harvest's acquire order the two).
    fn deliver(&self, batch: impl ExactSizeIterator<Item = (OpCommand, Outcome)>) {
        if batch.len() == 0 {
            return;
        }
        let stats = &self.queue.stats.drain;
        stats.completed.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut woken = 0u64;
        for (op, outcome) in batch {
            if outcome.result.is_err() {
                stats.failed_ops.fetch_add(1, Ordering::Relaxed);
            }
            woken += u64::from(self.queue.board.fill(op.slot, op.generation, outcome));
        }
        if woken > 0 {
            stats.wakeups.fetch_add(woken, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::ServerBuilder;
    use std::sync::mpsc::{self, sync_channel};
    use std::thread::{self, JoinHandle};

    fn op(lba: u64) -> OpCommand {
        OpCommand { request: Request::write(0, 0, lba, 1), local_lba: lba, slot: 0, generation: 0 }
    }

    /// Non-blocking drain: the LBAs of the ops and the number of probes.
    fn drain(q: &ShardQueue) -> (Vec<u64>, usize) {
        let (mut ops, mut probes) = (Vec::new(), Vec::new());
        q.pop_all(&mut ops, &mut probes, false);
        (ops.iter().map(|o| o.request.lba).collect(), probes.len())
    }

    #[test]
    fn commands_round_trip_through_a_cell() {
        for request in [
            Request::write(7, 3, 1 << 40, 9),
            Request::read(0, 1, 2, 3).with_seq(u64::MAX),
            Request::trim(u32::MAX, u32::MAX, 0, u32::MAX).with_seq(0),
        ] {
            let q = ShardQueue::new(2);
            let cmd = OpCommand { request, local_lba: 77, slot: 5, generation: u32::MAX };
            assert!(q.try_push(&cmd).is_ok());
            let mut got = Vec::new();
            q.pop_all(&mut got, &mut Vec::new(), false);
            let g = &got[0];
            assert_eq!((g.request, g.local_lba, g.slot, g.generation), (request, 77, 5, u32::MAX));
        }
    }

    #[test]
    fn the_ring_is_fifo_across_wraps() {
        let q = ShardQueue::new(4);
        let (mut next, mut seen) = (0, Vec::new());
        for round in 0..12 {
            for _ in 0..round % 4 + 1 {
                assert!(q.try_push(&op(next)).is_ok());
                next += 1;
            }
            seen.extend(drain(&q).0);
        }
        assert!(next >= 7 * 4, "{next} pushes: fewer than 7 laps of a depth-4 ring");
        assert_eq!(seen, (0..next).collect::<Vec<_>>());
    }

    #[test]
    fn full_exactly_at_depth() {
        for depth in [1, 2, 3, 4, 5, 8] {
            let q = ShardQueue::new(depth);
            for lap in 0..3 {
                for i in 0..depth as u64 {
                    assert!(q.try_push(&op(i)).is_ok(), "depth {depth} lap {lap}");
                }
                assert!(matches!(q.try_push(&op(9)), Err(PushError::Full)), "depth {depth}");
                assert_eq!(q.len(), depth);
                assert_eq!(drain(&q).0.len(), depth);
                assert_eq!(q.len(), 0);
            }
        }
    }

    #[test]
    fn queue_respects_depth_and_close() {
        let q = ShardQueue::new(2);
        assert!(q.try_push(&op(0)).is_ok());
        assert!(q.try_push(&op(1)).is_ok());
        assert!(matches!(q.try_push(&op(2)), Err(PushError::Full)));
        let (reply, _answer) = sync_channel(1);
        assert!(q.push_control(reply), "control pushes bypass the bound");
        assert_eq!(q.len(), 2);
        q.close();
        assert!(matches!(q.try_push(&op(3)), Err(PushError::Closed)));
        assert!(!q.push_control(sync_channel(1).0));
        let (mut ops, mut probes) = (Vec::new(), Vec::new());
        assert!(!q.pop_all(&mut ops, &mut probes, true), "closed but items remain");
        assert_eq!((ops.len(), probes.len()), (2, 1));
        assert!(!q.queued(), "the drain moved head past the ops");
        ops.clear();
        probes.clear();
        assert!(q.pop_all(&mut ops, &mut probes, true), "closed and drained");
        assert_eq!(q.stats.snapshot().wakeups, 0, "the consumer never parked");
    }

    #[test]
    fn close_drains_a_claimed_but_unpublished_cell() {
        let q = ShardQueue::new(4);
        let (claimed, go) = (mpsc::channel(), mpsc::channel::<()>());
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let pos = q.claim().unwrap();
                claimed.0.send(()).unwrap();
                go.1.recv().unwrap();
                q.publish(pos, &op(42));
            })
        };
        claimed.1.recv().unwrap();
        q.close();
        assert!(matches!(q.try_push(&op(1)), Err(PushError::Closed)));
        assert_eq!(drain(&q), (vec![], 0));
        assert!(!q.ready(), "a claimed cell is owed: the shard must wait, not exit");
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut ops = Vec::new();
                let closed = q.pop_all(&mut ops, &mut Vec::new(), true);
                (ops.iter().map(|o| o.request.lba).collect::<Vec<_>>(), closed)
            })
        };
        go.0.send(()).unwrap();
        producer.join().unwrap();
        assert_eq!(consumer.join().unwrap(), (vec![42], false));
        assert!(q.pop_all(&mut Vec::new(), &mut Vec::new(), true), "closed and drained");
    }

    #[test]
    fn a_probe_waits_for_the_positions_claimed_before_it() {
        let q = ShardQueue::new(8);
        assert!(q.try_push(&op(0)).is_ok());
        let held = q.claim().unwrap();
        let (reply, _answer) = sync_channel(1);
        assert!(q.push_control(reply));
        assert!(q.try_push(&op(2)).is_ok());
        assert_eq!(drain(&q), (vec![0], 0), "position 1 is not drained yet");
        assert!(!q.ready());
        q.publish(held, &op(1));
        assert_eq!(drain(&q), (vec![1, 2], 1));
    }

    #[test]
    fn telemetry_answers_after_the_ops_submitted_before_it() {
        let server = ServerBuilder::new().volume(0, 4096).range_blocks(4096).start(|plan| {
            let sink = adapt_array::CountingArray::new(plan.lss.array_config());
            Box::new(Lss::builder(adapt_placement::SepGc::new(), sink).config(plan.lss).build())
        });
        let client = server.client();
        let mut tickets = Vec::new();
        let mut applied = 0;
        for n in [1, 37, 200] {
            for lba in 0..n {
                tickets.push(client.submit_backoff(Request::write(0, 0, lba, 1)).unwrap());
            }
            applied += n;
            assert_eq!(client.telemetry(0).unwrap().host_ops, applied);
        }
        drop(tickets);
        assert!(server.shutdown().balanced());
    }

    #[test]
    fn queue_length_reads_take_no_lock() {
        let q = ShardQueue::new(8);
        for lba in 0..5 {
            assert!(q.try_push(&op(lba)).is_ok());
        }
        // Hold every mutex the queue has: `len` (what
        // `Client::queue_depths` reports per shard) must not need one.
        let (_sleep, _probes) = (lock(&q.sleep), lock(&q.probes));
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&q).0.len(), 5);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pushes_without_parked_consumer_issue_no_notify() {
        let q = ShardQueue::new(64);
        for lba in 0..64 {
            assert!(q.try_push(&op(lba)).is_ok());
        }
        assert!(q.push_control(sync_channel(1).0));
        let (mut ops, mut probes) = (Vec::new(), Vec::new());
        // Non-blocking and non-empty blocking drains do not park.
        assert!(!q.pop_all(&mut ops, &mut probes, false));
        assert!(q.try_push(&op(64)).is_ok());
        assert!(!q.pop_all(&mut ops, &mut probes, true));
        assert_eq!((ops.len(), probes.len()), (65, 1));
        assert_eq!(q.stats.snapshot().wakeups, 0);
    }

    /// Spawn a consumer that blocks in `pop_all` and return once it is
    /// asleep: it raises the flag under `sleep` and holds that mutex until
    /// its wait releases it.
    fn parked_consumer(q: &Arc<ShardQueue>) -> JoinHandle<(usize, bool)> {
        let consumer = {
            let q = Arc::clone(q);
            thread::spawn(move || {
                let (mut ops, mut probes) = (Vec::new(), Vec::new());
                let closed = q.pop_all(&mut ops, &mut probes, true);
                (ops.len() + probes.len(), closed)
            })
        };
        while !q.signals.parked.load(Ordering::Relaxed) {
            thread::yield_now();
        }
        drop(lock(&q.sleep));
        consumer
    }

    #[test]
    fn parked_consumer_costs_exactly_one_notify() {
        let q = ShardQueue::new(8);
        let consumer = parked_consumer(&q);
        assert!(q.try_push(&op(0)).is_ok());
        assert_eq!(q.stats.snapshot().wakeups, 1, "the push that cleared the flag notifies");
        // The consumer is awake (or about to be): further pushes are free.
        assert!(q.try_push(&op(1)).is_ok());
        assert!(q.push_control(sync_channel(1).0));
        assert_eq!(q.stats.snapshot().wakeups, 1);
        let (n, closed) = consumer.join().unwrap();
        assert!((1..=3).contains(&n) && !closed);
        assert!(!q.signals.parked.load(Ordering::Relaxed));
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
        assert!(!q.ready());
        assert!(q.try_push(&op(0)).is_ok());
        assert!(q.ready(), "a push ends the spin");
        assert_eq!(drain(&q).0.len(), 1);
        assert!(!q.ready(), "drained: the spin would run on");
        q.close();
        assert!(q.ready(), "close ends the spin although nothing is queued");
    }

    #[test]
    fn cells_and_the_claim_word_sit_on_lines_of_their_own() {
        let q = ShardQueue::new(8);
        assert_eq!(std::mem::size_of::<Cell>(), 64, "a cell fills its line alone");
        assert_eq!(q.cells.as_ptr() as usize % 64, 0);
        // Producers write `tail`, the shard writes `head`, and the spin
        // polls `signals`: three lines, none shared with another field.
        for (name, addr, len) in [
            ("tail", std::ptr::from_ref(&q.tail) as usize, std::mem::size_of_val(&q.tail)),
            ("head", std::ptr::from_ref(&q.head) as usize, std::mem::size_of_val(&q.head)),
            ("signals", std::ptr::from_ref(&q.signals) as usize, std::mem::size_of_val(&q.signals)),
        ] {
            assert_eq!((addr % 64, len), (0, 64), "{name}");
        }
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
        assert!(!is_fatal(&EngineError::OutOfRange { lba: 8, blocks: 1, user_blocks: 8 }));
    }
}

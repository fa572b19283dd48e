//! Public types of the async submission API.
//!
//! The serving layer is deliberately callback-free:
//! [`Client::submit`](crate::server::Client::submit) returns a
//! [`Ticket`] immediately (or a typed [`SubmitError`] — never a blocking
//! wait), and the caller harvests the [`Completion`] with `wait`
//! whenever it chooses. A ticket
//! names a slot on its shard's completion board, which the shard thread
//! fills by a compare-and-swap, with no lock and no allocation; dropping
//! a ticket is allowed (the completion is simply discarded and the slot
//! reused).

use crate::board::{Board, Outcome};
use adapt_lss::{EngineError, Retryable};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Tenant identifier for QoS accounting.
pub type TenantId = u32;
/// Volume identifier (host-visible namespace).
pub type VolumeId = u32;

/// Operation kind carried by a [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Write `blocks` blocks starting at `lba`.
    Write,
    /// Read `blocks` blocks starting at `lba`.
    Read,
    /// Discard `blocks` blocks starting at `lba`.
    Trim,
}

/// One host request against a volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// Tenant issuing the request (admission control key).
    pub tenant: TenantId,
    /// Target volume.
    pub volume: VolumeId,
    /// First logical block within the volume.
    pub lba: u64,
    /// Number of blocks (must be ≥ 1 and stay within one routing range).
    pub blocks: u32,
    /// Operation kind.
    pub kind: OpKind,
    /// Optional per-shard apply sequence for deterministic replay: when
    /// the server runs in ordered mode every submitted request must carry
    /// the dense per-shard sequence assigned by the trace generator, and
    /// the shard applies strictly in that order regardless of client
    /// interleaving. `None` under normal FIFO serving.
    pub seq: Option<u64>,
}

impl Request {
    /// Write request.
    pub fn write(tenant: TenantId, volume: VolumeId, lba: u64, blocks: u32) -> Self {
        Self { tenant, volume, lba, blocks, kind: OpKind::Write, seq: None }
    }

    /// Read request.
    pub fn read(tenant: TenantId, volume: VolumeId, lba: u64, blocks: u32) -> Self {
        Self { tenant, volume, lba, blocks, kind: OpKind::Read, seq: None }
    }

    /// Trim request.
    pub fn trim(tenant: TenantId, volume: VolumeId, lba: u64, blocks: u32) -> Self {
        Self { tenant, volume, lba, blocks, kind: OpKind::Trim, seq: None }
    }

    /// Attach an ordered-mode apply sequence.
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = Some(seq);
        self
    }
}

/// Why a submission was rejected *synchronously*. Submission never
/// blocks: backpressure surfaces as [`SubmitError::Busy`] or
/// [`SubmitError::TenantThrottled`], both of which are retryable — the
/// request was not enqueued and no tenant budget was consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubmitError {
    /// The target shard's command queue is at capacity.
    Busy {
        /// Shard whose queue was full.
        shard: u32,
        /// Configured queue depth.
        depth: u32,
    },
    /// The tenant's token bucket is empty (weighted fair admission).
    TenantThrottled {
        /// Tenant that exceeded its share.
        tenant: TenantId,
    },
    /// The volume was never registered with the builder.
    UnknownVolume {
        /// Offending volume id.
        volume: VolumeId,
    },
    /// The request runs past the end of the volume.
    OutOfRange {
        /// Offending volume id.
        volume: VolumeId,
        /// First LBA of the request.
        lba: u64,
        /// Block count of the request.
        blocks: u32,
        /// Registered volume capacity in blocks.
        capacity: u64,
    },
    /// The request spans two routing ranges (and hence possibly two
    /// shards); callers must split at `range_blocks` boundaries.
    CrossesShardBoundary {
        /// Offending volume id.
        volume: VolumeId,
        /// First LBA of the request.
        lba: u64,
        /// Block count of the request.
        blocks: u32,
    },
    /// `blocks == 0`.
    ZeroBlocks,
    /// Ordered-mode server received a request without a sequence number
    /// (or a FIFO server received one with).
    SequenceMismatch,
    /// The server is shutting down (or the shard thread failed and its
    /// queue is closed).
    Shutdown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Busy { shard, depth } => {
                write!(f, "shard {shard} queue full (depth {depth})")
            }
            SubmitError::TenantThrottled { tenant } => {
                write!(f, "tenant {tenant} throttled by admission control")
            }
            SubmitError::UnknownVolume { volume } => write!(f, "unknown volume {volume}"),
            SubmitError::OutOfRange { volume, lba, blocks, capacity } => write!(
                f,
                "request [{lba}, {lba}+{blocks}) out of range for volume {volume} \
                 (capacity {capacity} blocks)"
            ),
            SubmitError::CrossesShardBoundary { volume, lba, blocks } => write!(
                f,
                "request [{lba}, {lba}+{blocks}) on volume {volume} crosses a routing-range \
                 boundary"
            ),
            SubmitError::ZeroBlocks => write!(f, "zero-length request"),
            SubmitError::SequenceMismatch => {
                write!(f, "ordered server requires Request::seq (and FIFO forbids it)")
            }
            SubmitError::Shutdown => write!(f, "server is shut down"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl Retryable for SubmitError {
    /// Backpressure rejections are retryable by construction; validation
    /// and shutdown errors are not.
    fn is_retryable(&self) -> bool {
        matches!(self, SubmitError::Busy { .. } | SubmitError::TenantThrottled { .. })
    }
}

/// Why an *accepted* request failed at apply or commit time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeError {
    /// The engine rejected the operation (fault model, WAL, space).
    Engine(String),
    /// The shard hit a fatal engine error (power loss, WAL failure,
    /// index corruption) and fail-stopped; this request — and every later
    /// one routed to the shard — was not applied.
    ShardFailed {
        /// The failed shard.
        shard: u32,
    },
}

impl ServeError {
    pub(crate) fn engine(e: &EngineError) -> Self {
        ServeError::Engine(e.to_string())
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::ShardFailed { shard } => write!(f, "shard {shard} fail-stopped"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Final outcome of one accepted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Shard that served the request.
    pub shard: u32,
    /// The original request.
    pub request: Request,
    /// Engine timestamp (µs) assigned at apply. For writes this is the
    /// version [`durable_version`](adapt_lss::Lss::durable_version)
    /// reports after crash recovery, so an acked `(lba, version)` pair is
    /// directly checkable against a recovered engine.
    pub version: u64,
    /// True when the completion was held back until a WAL group-commit
    /// barrier covered it (acked ⇒ durable). Always false for reads and
    /// for servers without durability.
    pub durable: bool,
    /// Apply/commit outcome.
    pub result: Result<(), ServeError>,
}

/// Handle to one in-flight request. Redeem with
/// [`Client::wait`](crate::server::Client::wait); dropping it abandons
/// the completion (the request still executes).
#[derive(Debug)]
pub struct Ticket {
    pub(crate) board: Arc<Board>,
    pub(crate) slot: u32,
    pub(crate) generation: u64,
    pub(crate) shard: u32,
    /// What the completion reports back, kept here rather than sent back.
    pub(crate) request: Request,
}

impl Ticket {
    /// Shard the request was routed to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Non-blocking poll: the completion if the shard already finished.
    /// Once it has returned one, it returns `None`.
    pub fn poll(&self) -> Option<Completion> {
        self.board.try_take(self.slot, self.generation).map(|o| self.complete(o))
    }

    pub(crate) fn complete(&self, o: Outcome) -> Completion {
        let Outcome { version, durable, result } = o;
        Completion { shard: self.shard, request: self.request, version, durable, result }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.board.abandon(self.slot, self.generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backpressure_errors_are_retryable() {
        assert!(SubmitError::Busy { shard: 0, depth: 8 }.is_retryable());
        assert!(SubmitError::TenantThrottled { tenant: 3 }.is_retryable());
        assert!(!SubmitError::UnknownVolume { volume: 9 }.is_retryable());
        assert!(!SubmitError::Shutdown.is_retryable());
        assert!(!SubmitError::ZeroBlocks.is_retryable());
    }

    #[test]
    fn request_constructors_set_kind() {
        assert_eq!(Request::write(0, 1, 2, 3).kind, OpKind::Write);
        assert_eq!(Request::read(0, 1, 2, 3).kind, OpKind::Read);
        assert_eq!(Request::trim(0, 1, 2, 3).kind, OpKind::Trim);
        assert_eq!(Request::write(0, 1, 2, 3).with_seq(9).seq, Some(9));
    }

    #[test]
    fn errors_display() {
        let e = SubmitError::OutOfRange { volume: 1, lba: 10, blocks: 4, capacity: 12 };
        assert!(e.to_string().contains("volume 1"));
        assert!(ServeError::ShardFailed { shard: 2 }.to_string().contains("shard 2"));
    }
}

//! SSD-array substrate for the ADAPT reproduction.
//!
//! Models the array layer the paper deploys beneath its log-structured
//! store: an mdraid-style volume whose minimum write unit is a *chunk*
//! (64 KiB default). Chunks from different devices form *stripes*; each
//! stripe carries `m` parity chunks (`k + m` erasure coding: XOR RAID-5
//! at `m = 1`, Reed-Solomon beyond), rotated across devices
//! (left-symmetric layout, as in Linux mdraid's default).
//!
//! Two in-memory arrays, for two jobs:
//!
//! * [`CountingArray`] — a pure accounting model used by the trace-driven
//!   figure sweeps: it tracks where each flushed chunk lands, how many
//!   bytes of user data, GC data, shadow copies, and zero padding each
//!   device absorbs, and how much parity traffic the stripe geometry
//!   implies. It never fails.
//! * [`InMemoryArray`] — the one array that models faults: it keeps chunk
//!   contents, computes parity as a stripe fills, checksums every chunk,
//!   and implements device failure, degraded reads of up to `m` erased
//!   members per stripe, the rebuild sweep, verify-on-read and the scrub.
//!   It comes at two body lengths — every byte of every chunk
//!   ([`InMemoryArray::new`]: the prototype, the byte-exactness tests, the
//!   repo benchmark) or one byte of it ([`InMemoryArray::modelled`]: the
//!   trace-driven fault and scrub scenarios) — and is otherwise the same
//!   code: `tests/modelled_vs_bytes.rs` holds the two to the same
//!   counters and read outcomes. Each device's chunks sit at stripe-indexed
//!   slots of 32-chunk slabs; the full store's 2 MiB slabs are anonymous
//!   memory advised onto huge pages, and a read copies its chunk out.
//!
//! The log-structured engine above talks to any of them through the
//! [`ArraySink`] trait, which receives chunk-granular flushes (the paper's
//! invariant: the array never sees sub-chunk writes — partial chunks are
//! zero-padded by the layer above).

pub mod config;
pub mod counters;
pub mod cpu_features;
pub mod crc;
pub mod error;
pub mod fault;
pub mod file_sink;
pub mod ftl;
pub mod ftl_sink;
pub mod gf256;
pub mod layout;
pub mod media;
pub mod parity;
pub mod rs;
pub mod sink;
pub mod store;

pub use config::{ArrayConfig, ArrayGeometry, CodingScheme};
pub use counters::{ArrayStats, DeviceCounters};
pub use crc::crc32c;
pub use error::{ArrayError, ParityError, Retryable, StorageFailure};
pub use fault::{
    ArrayHealth, FaultPlan, ReadMode, ReadOutcome, RebuildProgress, ScrubProgress, ScrubStep,
};
pub use file_sink::{FileArraySink, FileSinkError, FileSinkOptions};
pub use ftl::{FtlConfig, FtlDevice, FtlStats};
pub use ftl_sink::FtlArray;
pub use layout::{ChunkLocation, StripeLayout, StripeRole};
pub use media::{atomic_replace, MediaError, MediaFile, PowerBudget, WriteTag};
pub use rs::ReedSolomon;
pub use sink::{ArraySink, ChunkFlush, CountingArray, RecoveredFlush, SinkReconcile, Traffic};
pub use store::InMemoryArray;

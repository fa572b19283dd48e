//! Block-framed write-ahead log for the durable engine backend.
//!
//! Every state transition the engine cannot reconstruct from segment
//! files alone — buffer appends (user writes *and* GC migrations), chunk
//! flushes, segment opens, reclaims, and trims — is appended here as one
//! length-prefixed record with a CRC32C trailer:
//!
//! ```text
//! [len: u32 LE] [type: u8][body ...] [crc32c(type+body): u32 LE]
//! ```
//!
//! Records accumulate in a volatile write cache ([`MediaFile`]) and
//! become durable at *sync* points chosen by the [`FsyncPolicy`]: every
//! commit, every Nth commit (group commit), or only at rotations and
//! checkpoints. A host write is **acknowledged** exactly when the sync
//! covering its `BufferAppend` record completes — the engine drains those
//! acknowledgements via [`Wal::drain_ready_acks`], and the power-loss
//! simulator verifies that every acknowledged `(lba, version)` survives
//! recovery.
//!
//! Replay ([`replay_dir`]) scans the log files in index order and stops
//! at the first torn or CRC-failing record: everything before that point
//! is the durable prefix, everything after is discarded (and physically
//! truncated by [`repair_tail`] so the next incarnation of the log cannot
//! trip over the garbage). Checkpoints rotate the log to a fresh file and
//! prune everything older once the snapshot is durable.

use crate::types::{GroupId, Lba, SegmentId};
use adapt_array::{crc32c, MediaError, MediaFile, PowerBudget, WriteTag};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Upper bound on one record's payload; a length prefix beyond this is
/// treated as a torn/corrupt tail rather than an allocation request.
pub const MAX_RECORD_BYTES: u32 = 1 << 20;

/// When the WAL makes buffered records durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FsyncPolicy {
    /// Never sync on commit; records become durable only at rotations and
    /// checkpoints. Highest throughput, widest loss window — and since
    /// nothing is acknowledged until a sync, nothing is *falsely*
    /// acknowledged either.
    Never,
    /// Sync once every N commits (group commit).
    GroupCommit(u32),
    /// Sync at every commit point (one fsync per host-level operation).
    EveryCommit,
}

impl FsyncPolicy {
    /// Stable label for reports and bench output.
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Never => "never".into(),
            FsyncPolicy::GroupCommit(n) => format!("group_commit_{n}"),
            FsyncPolicy::EveryCommit => "every_commit".into(),
        }
    }
}

/// Durability knobs threaded through
/// [`EngineBuilder::durability`](crate::EngineBuilder::durability).
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Sync cadence relative to commit points.
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh WAL file once the current one exceeds this many
    /// durable bytes.
    pub rotate_bytes: u64,
    /// Checkpoint (snapshot + prune) automatically after this many chunk
    /// flushes; 0 disables automatic checkpoints
    /// ([`Lss::checkpoint`](crate::Lss::checkpoint) still works).
    pub checkpoint_every_flushes: u64,
    /// Issue real `fdatasync` calls at sync points. Off by default: the
    /// simulator's crash model is the [`PowerBudget`], not the kernel
    /// page cache, and fsync-per-record makes sweeps needlessly slow.
    pub fsync_data: bool,
    /// Simulated power budget shared with the durable sink; `None` means
    /// unlimited (no crash injection).
    pub budget: Option<Arc<PowerBudget>>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::GroupCommit(32),
            rotate_bytes: 1 << 20,
            checkpoint_every_flushes: 1024,
            fsync_data: false,
            budget: None,
        }
    }
}

impl std::fmt::Debug for DurabilityConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityConfig")
            .field("fsync", &self.fsync)
            .field("rotate_bytes", &self.rotate_bytes)
            .field("checkpoint_every_flushes", &self.checkpoint_every_flushes)
            .field("fsync_data", &self.fsync_data)
            .field("budget", &self.budget.is_some())
            .finish()
    }
}

/// Typed WAL failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The simulated power budget ran out mid-write; the durable prefix
    /// ends at an arbitrary byte.
    PowerLoss,
    /// A real filesystem error.
    Io(String),
}

impl From<MediaError> for WalError {
    fn from(e: MediaError) -> Self {
        match e {
            MediaError::PowerLoss => WalError::PowerLoss,
            MediaError::Io(s) => WalError::Io(s),
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::PowerLoss => write!(f, "simulated power loss during WAL write"),
            WalError::Io(s) => write!(f, "WAL I/O error: {s}"),
        }
    }
}

impl std::error::Error for WalError {}

/// What one flushed slot carried, for replay and sink restoration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSlotKind {
    /// A user-written block.
    User,
    /// A GC-migrated block.
    Gc,
    /// A cross-group shadow substitute copy (ADAPT §3.3).
    Shadow,
}

/// One non-pad slot of a flushed chunk as recorded in the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalSlot {
    /// Slot class.
    pub kind: WalSlotKind,
    /// The block.
    pub lba: Lba,
    /// The block's version (its arrival timestamp in µs — monotone per
    /// LBA, so recovery can prove no acknowledged version was lost).
    pub version: u64,
}

/// One WAL record. The set mirrors exactly the engine mutations that
/// recovery must redo; any prefix of the record stream is a consistent
/// engine history (each record is one atomic transition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A segment left the free pool and opened for a group.
    Open {
        /// The segment.
        seg: SegmentId,
        /// Owning group.
        group: GroupId,
        /// Monotonic open-sequence stamp.
        open_seq: u64,
        /// Byte-clock value at open.
        created_user_bytes: u64,
        /// Simulated wall clock (µs) at open.
        created_ts_us: u64,
    },
    /// A block entered a group's coalescing buffer — the record whose
    /// sync acknowledges a host write, and the record that keeps GC
    /// reclaim safe (migration appends precede the victim's `Reclaim` in
    /// log order, so a prefix cut never drops a live block).
    BufferAppend {
        /// The block.
        lba: Lba,
        /// Arrival timestamp (µs) — the block's version.
        version: u64,
        /// Destination group.
        group: GroupId,
        /// True for GC migrations, false for host writes.
        gc: bool,
        /// Whether the append armed the SLA timer.
        needs_sla: bool,
    },
    /// A chunk flushed out of a group's buffer into its open segment.
    Flush {
        /// Global flush sequence (equals the sink's chunk sequence — the
        /// lockstep invariant recovery relies on).
        flush_seq: u64,
        /// Destination segment.
        seg: SegmentId,
        /// Chunk index within the segment.
        chunk_in_seg: u32,
        /// Flushing group.
        group: GroupId,
        /// Simulated clock at flush (µs).
        now_us: u64,
        /// Byte clock at flush.
        user_bytes_clock: u64,
        /// Zero-pad slots appended after `slots`.
        pad_blocks: u32,
        /// Payload slots in append order (blocks first, then shadows).
        slots: Vec<WalSlot>,
    },
    /// GC selected a victim and detached it from the bucket index and its
    /// owner's sealed list. Segments sealed by the migration flushes that
    /// follow land *after* this removal, so replay must mirror the
    /// detach-first order to reproduce the engine's sealed lists exactly.
    GcBegin {
        /// The victim segment.
        seg: SegmentId,
    },
    /// GC reclaimed a segment (all its live blocks were re-appended by
    /// earlier `BufferAppend` records).
    Reclaim {
        /// The reclaimed segment.
        seg: SegmentId,
    },
    /// A TRIM invalidated a block range.
    Trim {
        /// First block.
        lba: Lba,
        /// Number of blocks.
        blocks: u32,
    },
}

const REC_OPEN: u8 = 1;
const REC_BUFFER_APPEND: u8 = 2;
const REC_FLUSH: u8 = 3;
const REC_RECLAIM: u8 = 4;
const REC_TRIM: u8 = 5;
const REC_GC_BEGIN: u8 = 6;

const SLOT_USER: u8 = 0;
const SLOT_GC: u8 = 1;
const SLOT_SHADOW: u8 = 2;

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `words` as one bulk little-endian run (no per-word length or
/// tag): sized once, then a straight copy loop the compiler turns into a
/// `memcpy` on little-endian targets.
pub(crate) fn put_words(buf: &mut Vec<u8>, words: &[u64]) {
    let start = buf.len();
    buf.resize(start + words.len() * 8, 0);
    for (dst, w) in buf[start..].chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Bounds-checked little-endian reader; every accessor is fallible so
/// arbitrary garbage can never panic the decoder. Shared with the
/// checkpoint codec in [`crate::recovery`].
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let s = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let s = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }

    /// The next `n` bytes as one slice.
    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    /// The next `n` little-endian `u64` words as one bulk slice (decode
    /// each with `u64::from_le_bytes`). A count the remaining bytes
    /// cannot hold is `None`, so a corrupt length never drives an
    /// allocation.
    pub(crate) fn words(&mut self, n: usize) -> Option<&'a [[u8; 8]]> {
        let (words, rest) = self.bytes(n.checked_mul(8)?)?.as_chunks::<8>();
        debug_assert!(rest.is_empty());
        Some(words)
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Remaining unread bytes (for sizing sanity checks).
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

impl WalRecord {
    /// Encode the payload (type byte + body) into `buf`.
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            WalRecord::Open { seg, group, open_seq, created_user_bytes, created_ts_us } => {
                buf.push(REC_OPEN);
                put_u32(buf, *seg);
                buf.push(*group);
                put_u64(buf, *open_seq);
                put_u64(buf, *created_user_bytes);
                put_u64(buf, *created_ts_us);
            }
            WalRecord::BufferAppend { lba, version, group, gc, needs_sla } => {
                buf.push(REC_BUFFER_APPEND);
                put_u64(buf, *lba);
                put_u64(buf, *version);
                buf.push(*group);
                buf.push(u8::from(*gc) | (u8::from(*needs_sla) << 1));
            }
            WalRecord::Flush {
                flush_seq,
                seg,
                chunk_in_seg,
                group,
                now_us,
                user_bytes_clock,
                pad_blocks,
                slots,
            } => {
                buf.push(REC_FLUSH);
                put_u64(buf, *flush_seq);
                put_u32(buf, *seg);
                put_u32(buf, *chunk_in_seg);
                buf.push(*group);
                put_u64(buf, *now_us);
                put_u64(buf, *user_bytes_clock);
                put_u32(buf, *pad_blocks);
                put_u32(buf, slots.len() as u32);
                for s in slots {
                    buf.push(match s.kind {
                        WalSlotKind::User => SLOT_USER,
                        WalSlotKind::Gc => SLOT_GC,
                        WalSlotKind::Shadow => SLOT_SHADOW,
                    });
                    put_u64(buf, s.lba);
                    put_u64(buf, s.version);
                }
            }
            WalRecord::GcBegin { seg } => {
                buf.push(REC_GC_BEGIN);
                put_u32(buf, *seg);
            }
            WalRecord::Reclaim { seg } => {
                buf.push(REC_RECLAIM);
                put_u32(buf, *seg);
            }
            WalRecord::Trim { lba, blocks } => {
                buf.push(REC_TRIM);
                put_u64(buf, *lba);
                put_u32(buf, *blocks);
            }
        }
    }

    /// Decode one payload. `None` for any malformed input (wrong type,
    /// short body, trailing bytes, bad slot kind) — never panics.
    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            REC_OPEN => WalRecord::Open {
                seg: r.u32()?,
                group: r.u8()?,
                open_seq: r.u64()?,
                created_user_bytes: r.u64()?,
                created_ts_us: r.u64()?,
            },
            REC_BUFFER_APPEND => {
                let lba = r.u64()?;
                let version = r.u64()?;
                let group = r.u8()?;
                let flags = r.u8()?;
                if flags > 3 {
                    return None;
                }
                WalRecord::BufferAppend {
                    lba,
                    version,
                    group,
                    gc: flags & 1 != 0,
                    needs_sla: flags & 2 != 0,
                }
            }
            REC_FLUSH => {
                let flush_seq = r.u64()?;
                let seg = r.u32()?;
                let chunk_in_seg = r.u32()?;
                let group = r.u8()?;
                let now_us = r.u64()?;
                let user_bytes_clock = r.u64()?;
                let pad_blocks = r.u32()?;
                let n = r.u32()?;
                // 17 bytes per slot; reject counts the payload can't hold.
                if n as usize > payload.len() / 17 + 1 {
                    return None;
                }
                let mut slots = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let kind = match r.u8()? {
                        SLOT_USER => WalSlotKind::User,
                        SLOT_GC => WalSlotKind::Gc,
                        SLOT_SHADOW => WalSlotKind::Shadow,
                        _ => return None,
                    };
                    slots.push(WalSlot { kind, lba: r.u64()?, version: r.u64()? });
                }
                WalRecord::Flush {
                    flush_seq,
                    seg,
                    chunk_in_seg,
                    group,
                    now_us,
                    user_bytes_clock,
                    pad_blocks,
                    slots,
                }
            }
            REC_GC_BEGIN => WalRecord::GcBegin { seg: r.u32()? },
            REC_RECLAIM => WalRecord::Reclaim { seg: r.u32()? },
            REC_TRIM => WalRecord::Trim { lba: r.u64()?, blocks: r.u32()? },
            _ => return None,
        };
        r.done().then_some(rec)
    }

    /// Encode one framed record (length prefix + payload + CRC trailer)
    /// into `out`.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        let start = begin_frame(out);
        self.encode_payload(out);
        // One record is a few hundred bytes at most (a chunk's slots).
        let framed = end_frame(out, start);
        debug_assert!(framed, "WAL record over 4 GiB");
    }
}

/// Open a frame in `out`: reserves the length prefix and returns the
/// frame's start offset for [`end_frame`]. The payload is whatever the
/// caller appends in between. Shared by the WAL and the checkpoint delta
/// log, which therefore also share the torn-tail rule of [`split_frame`].
pub(crate) fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    put_u32(out, 0);
    start
}

/// Close the frame opened at `start`: patch the length prefix and append
/// the payload's CRC32C. `false` (frame left unusable) when the payload
/// does not fit the 32-bit length prefix.
pub(crate) fn end_frame(out: &mut Vec<u8>, start: usize) -> bool {
    let payload_start = start + 4;
    let Ok(len) = u32::try_from(out.len() - payload_start) else {
        return false;
    };
    out[start..payload_start].copy_from_slice(&len.to_le_bytes());
    let crc = crc32c(&out[payload_start..]);
    put_u32(out, crc);
    true
}

/// The payload of the frame starting at `buf[offset..]` and the offset
/// just past that frame; `None` if the bytes there are torn (short),
/// CRC-failing, empty, or longer than `max_len` — the durable prefix
/// ends at `offset`.
pub(crate) fn split_frame(buf: &[u8], offset: usize, max_len: u32) -> Option<(&[u8], usize)> {
    let mut r = Reader::new(buf.get(offset..)?);
    let len = r.u32()?;
    if len == 0 || len > max_len {
        return None;
    }
    let payload = r.bytes(len as usize)?;
    let crc = r.u32()?;
    (crc32c(payload) == crc).then_some((payload, offset + 8 + len as usize))
}

/// Decode the frame starting at `buf[offset..]`. Returns the record and
/// the offset just past its frame, or `None` if the bytes there are torn,
/// CRC-failing, or otherwise malformed — the durable prefix ends at
/// `offset`.
pub fn decode_frame(buf: &[u8], offset: usize) -> Option<(WalRecord, usize)> {
    let (payload, next) = split_frame(buf, offset, MAX_RECORD_BYTES)?;
    Some((WalRecord::decode_payload(payload)?, next))
}

/// Cumulative WAL activity counters. Deliberately **not** part of
/// [`LssMetrics`](crate::LssMetrics): durable and in-memory runs of the
/// same trace must produce bit-identical engine metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalStats {
    /// Records appended (durable or not).
    pub records_appended: u64,
    /// Frame bytes appended.
    pub bytes_appended: u64,
    /// Commit points observed.
    pub commits: u64,
    /// Sync operations completed.
    pub syncs: u64,
    /// File rotations.
    pub rotations: u64,
    /// Old files deleted by checkpoint pruning.
    pub files_pruned: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Bytes those checkpoints wrote (whole base files plus delta
    /// frames): what "a checkpoint costs what changed" is measured in.
    pub checkpoint_bytes: u64,
    /// How many of those checkpoints rewrote the whole base (the first
    /// one of an engine's life, and every fold of the delta log).
    pub checkpoint_bases: u64,
}

pub(crate) fn wal_file_name(idx: u64) -> String {
    format!("wal-{idx:06}.log")
}

fn wal_path(dir: &Path, idx: u64) -> PathBuf {
    dir.join(wal_file_name(idx))
}

/// Parse a WAL file index out of a directory-entry name.
fn parse_wal_idx(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    rest.parse().ok()
}

/// List WAL file indices present in `dir`, sorted ascending.
pub(crate) fn list_wal_indices(dir: &Path) -> Result<Vec<u64>, WalError> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(idx) = entry.file_name().to_str().and_then(parse_wal_idx) {
            out.push(idx);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// The write-ahead log: an append stream over rotating segment files,
/// with group-commit batching and acknowledgement tracking.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    cfg: DurabilityConfig,
    file: MediaFile,
    cur_idx: u64,
    /// Lowest file index that may still exist on disk; checkpoint pruning
    /// walks `oldest_idx..` instead of listing the directory.
    oldest_idx: u64,
    commits_since_sync: u32,
    /// Host writes appended but not yet durable: `(lba, version)`.
    pending_acks: Vec<(Lba, u64)>,
    /// Host writes proven durable by a completed sync, awaiting drain.
    ready_acks: Vec<(Lba, u64)>,
    /// Encode scratch.
    buf: Vec<u8>,
    stats: WalStats,
}

impl Wal {
    /// Start a fresh log in `dir`: any existing WAL files are removed
    /// (this is a new engine, not a recovery — use [`Wal::resume`] after
    /// replay).
    pub fn create(dir: &Path, cfg: DurabilityConfig) -> Result<Self, WalError> {
        std::fs::create_dir_all(dir)?;
        for idx in list_wal_indices(dir)? {
            std::fs::remove_file(wal_path(dir, idx))?;
        }
        Self::open_at(dir, cfg, 0, 0)
    }

    /// Continue a recovered log: append into a fresh file at `next_idx`,
    /// leaving the replayed files in place until the next checkpoint
    /// prunes them.
    pub fn resume(dir: &Path, cfg: DurabilityConfig, next_idx: u64) -> Result<Self, WalError> {
        std::fs::create_dir_all(dir)?;
        let oldest = list_wal_indices(dir)?.first().map_or(next_idx, |&i| i.min(next_idx));
        Self::open_at(dir, cfg, next_idx, oldest)
    }

    fn open_at(
        dir: &Path,
        cfg: DurabilityConfig,
        idx: u64,
        oldest_idx: u64,
    ) -> Result<Self, WalError> {
        let file = MediaFile::create(
            wal_path(dir, idx),
            cfg.budget.clone(),
            WriteTag::WalRecord,
            cfg.fsync_data,
        )?;
        Ok(Self {
            dir: dir.to_path_buf(),
            cfg,
            file,
            cur_idx: idx,
            oldest_idx,
            commits_since_sync: 0,
            pending_acks: Vec::new(),
            ready_acks: Vec::new(),
            buf: Vec::new(),
            stats: WalStats::default(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &DurabilityConfig {
        &self.cfg
    }

    /// Index of the file currently receiving appends.
    pub fn current_idx(&self) -> u64 {
        self.cur_idx
    }

    /// Activity counters.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Append one record to the volatile tail. Host-write `BufferAppend`
    /// records are tracked for acknowledgement at the covering sync.
    pub fn append(&mut self, rec: &WalRecord) {
        self.buf.clear();
        rec.encode_frame(&mut self.buf);
        self.file.write(&self.buf);
        self.stats.records_appended += 1;
        self.stats.bytes_appended += self.buf.len() as u64;
        if let WalRecord::BufferAppend { lba, version, gc: false, .. } = rec {
            self.pending_acks.push((*lba, *version));
        }
    }

    /// One commit point (end of a host-level operation). Syncs according
    /// to the [`FsyncPolicy`]; commit points with nothing buffered are
    /// free. Returns whether a sync ran.
    pub fn commit(&mut self) -> Result<bool, WalError> {
        if self.file.pending_bytes() == 0 && self.pending_acks.is_empty() {
            return Ok(false);
        }
        self.stats.commits += 1;
        let due = match self.cfg.fsync {
            FsyncPolicy::EveryCommit => true,
            FsyncPolicy::GroupCommit(n) => {
                self.commits_since_sync += 1;
                self.commits_since_sync >= n.max(1)
            }
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync()?;
        }
        Ok(due)
    }

    /// Make every appended record durable, acknowledge the host writes it
    /// covers, and rotate if the file outgrew its budget. On power loss
    /// nothing is acknowledged: the torn tail may hold any byte prefix of
    /// the pending records.
    pub fn sync(&mut self) -> Result<(), WalError> {
        self.file.sync()?;
        self.commits_since_sync = 0;
        self.stats.syncs += 1;
        self.ready_acks.append(&mut self.pending_acks);
        if self.file.durable_len() >= self.cfg.rotate_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> Result<(), WalError> {
        debug_assert_eq!(self.file.pending_bytes(), 0, "rotate with unsynced bytes");
        self.file = MediaFile::create(
            wal_path(&self.dir, self.cur_idx + 1),
            self.cfg.budget.clone(),
            WriteTag::WalRecord,
            self.cfg.fsync_data,
        )?;
        self.cur_idx += 1;
        self.stats.rotations += 1;
        Ok(())
    }

    /// Checkpoint step 1: sync everything, then rotate so the snapshot
    /// can cover every file below the returned index.
    pub fn rotate_for_checkpoint(&mut self) -> Result<u64, WalError> {
        self.sync()?;
        if self.file.durable_len() > 0 {
            self.rotate()?;
        }
        Ok(self.cur_idx)
    }

    /// Checkpoint step 3 (after the checkpoint is durable): delete files
    /// below `idx` — their records are covered by it. Indices a tail
    /// repair already removed are skipped.
    pub fn prune_below(&mut self, idx: u64) -> Result<(), WalError> {
        let end = idx.min(self.cur_idx);
        while self.oldest_idx < end {
            match std::fs::remove_file(wal_path(&self.dir, self.oldest_idx)) {
                Ok(()) => self.stats.files_pruned += 1,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            self.oldest_idx += 1;
        }
        Ok(())
    }

    /// Count one completed checkpoint that wrote `bytes` (a whole base
    /// when `base`, one delta frame otherwise).
    pub fn note_checkpoint(&mut self, bytes: u64, base: bool) {
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += bytes;
        self.stats.checkpoint_bases += u64::from(base);
    }

    /// Move the host writes acknowledged by completed syncs into `out`.
    pub fn drain_ready_acks(&mut self, out: &mut Vec<(Lba, u64)>) {
        out.append(&mut self.ready_acks);
    }

    /// Host writes appended but not yet covered by a sync.
    pub fn unacked(&self) -> usize {
        self.pending_acks.len()
    }
}

/// Where replay stopped: the first torn or corrupt record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// File whose tail is torn.
    pub file_idx: u64,
    /// Byte offset of the first invalid record in that file.
    pub offset: u64,
}

/// Result of scanning the log's durable prefix.
#[derive(Debug)]
pub struct WalReplay {
    /// Valid records, in append order.
    pub records: Vec<WalRecord>,
    /// WAL files visited.
    pub files_scanned: u64,
    /// Frame bytes accepted.
    pub bytes_replayed: u64,
    /// Index a resumed log should append at (one past the last file
    /// present, torn or not).
    pub next_idx: u64,
    /// Set when the scan stopped at an invalid record.
    pub torn: Option<TornTail>,
}

/// Scan the WAL files in `dir` starting at `start_idx` (the checkpoint's
/// rotation point) and return every record of the durable prefix. The
/// scan stops at the first torn/CRC-failing/malformed record, at a gap in
/// the file sequence, or at the end of the last file — never errors on
/// garbage, only on real I/O failures.
pub fn replay_dir(dir: &Path, start_idx: u64) -> Result<WalReplay, WalError> {
    let all = list_wal_indices(dir)?;
    let next_idx = all.iter().max().map(|&m| m + 1).unwrap_or(start_idx);
    let mut replay = WalReplay {
        records: Vec::new(),
        files_scanned: 0,
        bytes_replayed: 0,
        next_idx,
        torn: None,
    };
    for (expect, &idx) in (start_idx..).zip(all.iter().filter(|&&i| i >= start_idx)) {
        if idx != expect {
            break; // gap: files beyond it are not part of the prefix
        }
        replay.files_scanned += 1;
        let bytes = std::fs::read(wal_path(dir, idx))?;
        let mut off = 0usize;
        while off < bytes.len() {
            match decode_frame(&bytes, off) {
                Some((rec, next)) => {
                    replay.bytes_replayed += (next - off) as u64;
                    replay.records.push(rec);
                    off = next;
                }
                None => {
                    replay.torn = Some(TornTail { file_idx: idx, offset: off as u64 });
                    return Ok(replay);
                }
            }
        }
    }
    Ok(replay)
}

/// Physically truncate the torn tail found by [`replay_dir`] and remove
/// any files after it, so a resumed log never re-encounters the garbage.
/// Idempotent: re-running recovery repairs to the same point.
pub fn repair_tail(dir: &Path, replay: &WalReplay) -> Result<(), WalError> {
    let Some(torn) = replay.torn else { return Ok(()) };
    let path = wal_path(dir, torn.file_idx);
    let f = std::fs::OpenOptions::new().write(true).open(&path)?;
    f.set_len(torn.offset)?;
    for idx in list_wal_indices(dir)? {
        if idx > torn.file_idx {
            std::fs::remove_file(wal_path(dir, idx))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("adapt_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Open {
                seg: 7,
                group: 2,
                open_seq: 11,
                created_user_bytes: 4096,
                created_ts_us: 100,
            },
            WalRecord::BufferAppend { lba: 42, version: 123, group: 2, gc: false, needs_sla: true },
            WalRecord::BufferAppend { lba: 9, version: 200, group: 1, gc: true, needs_sla: false },
            WalRecord::Flush {
                flush_seq: 3,
                seg: 7,
                chunk_in_seg: 0,
                group: 2,
                now_us: 250,
                user_bytes_clock: 8192,
                pad_blocks: 14,
                slots: vec![
                    WalSlot { kind: WalSlotKind::User, lba: 42, version: 123 },
                    WalSlot { kind: WalSlotKind::Shadow, lba: 77, version: 99 },
                ],
            },
            WalRecord::GcBegin { seg: 3 },
            WalRecord::Reclaim { seg: 3 },
            WalRecord::Trim { lba: 100, blocks: 16 },
        ]
    }

    #[test]
    fn frame_roundtrip_every_variant() {
        for rec in sample_records() {
            let mut buf = Vec::new();
            rec.encode_frame(&mut buf);
            let (got, next) = decode_frame(&buf, 0).expect("frame decodes");
            assert_eq!(got, rec);
            assert_eq!(next, buf.len());
        }
    }

    #[test]
    fn truncated_frame_is_rejected_at_every_length() {
        let mut buf = Vec::new();
        for rec in sample_records() {
            rec.encode_frame(&mut buf);
        }
        // Any strict prefix decodes only the whole records it contains.
        let full: Vec<WalRecord> = {
            let mut out = Vec::new();
            let mut off = 0;
            while let Some((r, n)) = decode_frame(&buf, off) {
                out.push(r);
                off = n;
            }
            out
        };
        assert_eq!(full, sample_records());
        for cut in 0..buf.len() {
            let prefix = &buf[..cut];
            let mut off = 0;
            let mut n_ok = 0;
            while let Some((_, next)) = decode_frame(prefix, off) {
                off = next;
                n_ok += 1;
            }
            assert!(n_ok <= full.len());
            // Every decoded record must equal the original at its position.
            let mut off2 = 0;
            for (i, expected) in full.iter().enumerate().take(n_ok) {
                let (r, next) = decode_frame(prefix, off2).unwrap();
                assert_eq!(&r, expected, "cut {cut} record {i}");
                off2 = next;
            }
        }
    }

    #[test]
    fn bit_flips_are_caught() {
        let rec = &sample_records()[3];
        let mut buf = Vec::new();
        rec.encode_frame(&mut buf);
        for byte in 0..buf.len() {
            let mut mangled = buf.clone();
            mangled[byte] ^= 0x40;
            match decode_frame(&mangled, 0) {
                None => {}
                Some((got, _)) => {
                    // A flip in the length prefix can only be accepted if it
                    // still frames a CRC-valid record — impossible here since
                    // the payload CRC covers every payload byte.
                    assert_eq!(&got, rec, "undetected corruption at byte {byte}");
                    panic!("flip at byte {byte} went undetected");
                }
            }
        }
    }

    #[test]
    fn group_commit_batches_syncs_and_acks() {
        let dir = tdir("group_commit");
        let cfg =
            DurabilityConfig { fsync: FsyncPolicy::GroupCommit(3), ..DurabilityConfig::default() };
        let mut wal = Wal::create(&dir, cfg).unwrap();
        let mut acks = Vec::new();
        for i in 0..5u64 {
            wal.append(&WalRecord::BufferAppend {
                lba: i,
                version: i * 10,
                group: 0,
                gc: false,
                needs_sla: true,
            });
            wal.commit().unwrap();
            wal.drain_ready_acks(&mut acks);
        }
        // Commits 1-2 buffered, commit 3 synced (acking 0..3), 4-5 pending.
        assert_eq!(acks, vec![(0, 0), (1, 10), (2, 20)]);
        assert_eq!(wal.stats().syncs, 1);
        assert_eq!(wal.unacked(), 2);
        wal.sync().unwrap();
        wal.drain_ready_acks(&mut acks);
        assert_eq!(acks.len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_recovers_exactly_what_was_synced() {
        let dir = tdir("replay");
        let mut wal = Wal::create(&dir, DurabilityConfig::default()).unwrap();
        let recs = sample_records();
        for r in &recs {
            wal.append(r);
        }
        wal.sync().unwrap();
        // One more record left unsynced: it must not replay.
        wal.append(&WalRecord::Reclaim { seg: 99 });
        drop(wal);
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.records, recs);
        assert!(replay.torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_files_and_replay_spans_them() {
        let dir = tdir("rotate");
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::EveryCommit,
            rotate_bytes: 64,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::create(&dir, cfg).unwrap();
        let mut expect = Vec::new();
        for i in 0..20u64 {
            let r = WalRecord::BufferAppend {
                lba: i,
                version: i,
                group: 0,
                gc: false,
                needs_sla: true,
            };
            wal.append(&r);
            expect.push(r);
            wal.commit().unwrap();
        }
        assert!(wal.stats().rotations > 0, "tiny rotate_bytes must rotate");
        assert!(wal.current_idx() > 0);
        drop(wal);
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.records, expect);
        assert!(replay.files_scanned > 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_repaired() {
        let dir = tdir("torn");
        let mut wal = Wal::create(&dir, DurabilityConfig::default()).unwrap();
        let recs = sample_records();
        for r in &recs {
            wal.append(r);
        }
        wal.sync().unwrap();
        drop(wal);
        // Tear the tail by hand: append garbage bytes to the file.
        let path = wal_path(&dir, 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01]);
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_dir(&dir, 0).unwrap();
        assert_eq!(replay.records, recs);
        let torn = replay.torn.expect("garbage tail detected");
        assert_eq!(torn.offset as usize, clean_len);
        repair_tail(&dir, &replay).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), clean_len);
        // Idempotent: a second scan is clean.
        let again = replay_dir(&dir, 0).unwrap();
        assert!(again.torn.is_none());
        assert_eq!(again.records, recs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_below_removes_only_older_files() {
        let dir = tdir("prune");
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::EveryCommit,
            rotate_bytes: 32,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::create(&dir, cfg).unwrap();
        for i in 0..12u64 {
            wal.append(&WalRecord::Trim { lba: i, blocks: 1 });
            wal.commit().unwrap();
        }
        let keep = wal.rotate_for_checkpoint().unwrap();
        assert!(keep > 0);
        wal.prune_below(keep).unwrap();
        let left = list_wal_indices(&dir).unwrap();
        assert!(left.iter().all(|&i| i >= keep), "pruned below {keep}: {left:?}");
        assert!(!left.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumed_log_prunes_the_replayed_files_across_gaps() {
        let dir = tdir("prune_resume");
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::EveryCommit,
            rotate_bytes: 32,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::create(&dir, cfg.clone()).unwrap();
        for i in 0..12u64 {
            wal.append(&WalRecord::Trim { lba: i, blocks: 1 });
            wal.commit().unwrap();
        }
        let last = wal.current_idx();
        assert!(last >= 3);
        drop(wal);
        // What a tail repair leaves: a hole in the sequence, and the
        // resumed log starting past the old end.
        std::fs::remove_file(wal_path(&dir, 1)).unwrap();
        let mut wal = Wal::resume(&dir, cfg, last + 2).unwrap();
        wal.append(&WalRecord::Trim { lba: 99, blocks: 1 });
        let keep = wal.rotate_for_checkpoint().unwrap();
        wal.prune_below(keep).unwrap();
        assert_eq!(list_wal_indices(&dir).unwrap(), vec![keep]);
        assert_eq!(wal.stats().files_pruned, last + 1, "every file that existed, none twice");
        // Nothing left below: the next prune touches no file.
        wal.prune_below(keep).unwrap();
        assert_eq!(wal.stats().files_pruned, last + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn power_loss_during_sync_acknowledges_nothing() {
        let dir = tdir("powerloss");
        let budget = PowerBudget::limited(10); // far less than one record
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::EveryCommit,
            budget: Some(budget.clone()),
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::create(&dir, cfg).unwrap();
        wal.append(&WalRecord::BufferAppend {
            lba: 1,
            version: 1,
            group: 0,
            gc: false,
            needs_sla: true,
        });
        assert_eq!(wal.commit(), Err(WalError::PowerLoss));
        let mut acks = Vec::new();
        wal.drain_ready_acks(&mut acks);
        assert!(acks.is_empty(), "torn sync must not acknowledge");
        assert!(budget.is_tripped());
        // The torn prefix on disk fails CRC and replays to nothing.
        let replay = replay_dir(&dir, 0).unwrap();
        assert!(replay.records.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}

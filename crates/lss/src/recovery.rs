//! Checkpoint on-disk formats and crash-recovery types.
//!
//! Recovery equals *base + deltas + WAL suffix*. A checkpoint captures
//! the engine's *logical* state — segment tables (raw slot words), group
//! lists and buffers, the block index, the durable-version map, the
//! clocks — at a WAL rotation point: every record in files below its
//! `wal_start_idx` is covered by it, files at or above replay on top.
//! What a checkpoint writes is proportional to what changed since the
//! previous one, not to the volume:
//!
//! * `checkpoint.bin` — the **base**: the whole state, bulk-encoded.
//!   Rewritten rarely (see the fold rule).
//! * `checkpoint.delta` — the **delta log**: one CRC-framed record per
//!   cadence checkpoint holding only what the WAL records since the
//!   previous checkpoint touched.
//!
//! The codec lives here; who decides what to write, the files and the
//! dirty sets live in [`crate::checkpoint`].
//!
//! # Formats (hand-rolled little-endian; the vendored serde stack is
//! serialize-only, so nothing JSON-shaped can come back off disk)
//!
//! ```text
//! checkpoint.bin   "ADPTCKB2" body crc32c(body): u32
//!   body     geometry  header  groups  segments  index  shadows  versions
//!   geometry block_bytes u64, chunk_blocks u32, segment_chunks u32,
//!            user_blocks u64, num_groups u32, total_segments u32
//!   header   generation, seq (0 in a base), wal_start_idx, now_us,
//!            user_bytes_clock, ops_seen, next_open_seq, next_flush_seq: u64 each
//!   groups   n u32, then per group: open segment u32 (MAX = none), six
//!            lifetime counters u64, sealed list (n u32, ids u32, engine
//!            order — `Segment::group_pos` indexes into it), buffer
//!            (n u32, then lba u64, arrival_us u64, flags u8: 1 = GC,
//!            2 = SLA armed; append order)
//!   segments n u32, then per non-free segment: id u32, group u8, state u8
//!            (1 open, 2 sealed), filled u32, from u32 (0 in a base),
//!            open_seq, created_user_bytes, created_ts_us u64, then the
//!            flush sequences of chunks from/cb.. and the raw slot words
//!            from..filled, both as bulk u64 runs
//!   index    n u64, the packed `BlockIndex` words as one bulk u64 run
//!   shadows  n u32, (lba u64, seg u32, off u32): the side entries of
//!            the shadow-tagged index words, LBA-sorted
//!   versions n u64, the dense `VersionIndex` words as one bulk u64 run
//!
//! checkpoint.delta a sequence of WAL-style frames
//!   frame    len u32, payload, crc32c(payload) u32
//!   payload  "CKD1" header groups segments patches lbas shadows
//!   segments as above, also free ones (state 0, reclaimed since), and
//!            `from` = first slot appended since the previous checkpoint
//!            (0 = the segment was opened or reclaimed since: rewrite it)
//!   patches  n u32, (seg u32, off u32, word u64): slots tombstoned in
//!            place (dead shadow copies), with their current word
//!   lbas     n u32, then three parallel bulk u64 runs: the touched LBAs,
//!            their packed index words, their versions (MAX = none)
//! ```
//!
//! The three flat arrays — index words, version words, slot words — go
//! from engine memory to the file and back as bulk slices under the one
//! CRC; there is no per-entry tag and no intermediate snapshot struct.
//!
//! # Derived on load, not stored
//!
//! Per-segment valid counts (recounted from the index, which the loader
//! cross-checks against the slot words anyway), `Segment::group_pos` (from
//! the sealed lists), chunk array locations (from flush sequences — the
//! lockstep invariant), the free list (rebuilt descending, matching
//! initial construction) and the GC bucket index. Soft state is reset:
//! engine metrics (a recovered engine starts a fresh metrics epoch),
//! placement-policy internals, per-group EWMA arrival estimates and the
//! Eq. 1 padding windows.
//!
//! The index and the pending buffers are stored **explicitly** rather
//! than rescanned from segment slots: a slot scan would resurrect trimmed
//! or superseded blocks, and buffered blocks exist nowhere but the WAL
//! and the checkpoint.
//!
//! # The fold rule
//!
//! A base carries a generation; delta frames carry the generation of the
//! base they extend and a sequence 1, 2, 3, …. When the delta log has
//! outgrown the base, the next checkpoint *folds*: it writes a fresh base
//! (generation + 1) and truncates the log. A brand-new or recovered
//! engine writes a base first. So a checkpoint costs twice its delta,
//! amortized, and recovery reads at most twice the base. There is no knob.
//!
//! # Recovery and the crash windows
//!
//! Load the base; apply the delta frames of the same generation in
//! sequence order up to the first frame that is torn, CRC-failing or not
//! the expected successor; replay the WAL from the `wal_start_idx` of the
//! last frame applied. WAL files are pruned only after the checkpoint
//! that covers them is synced, so at every cut the older checkpoint and
//! its WAL suffix are both intact:
//!
//! * *inside a delta append* — the frame fails its CRC and is ignored;
//!   the previous frame and every WAL file since it are still there.
//! * *inside the base temp write, or before the rename* — the old base,
//!   its delta log and the WAL are untouched (`atomic_replace`).
//! * *between the base rename and the log truncation* — the new base is
//!   in place; the log holds frames of the previous generation, which are
//!   skipped; the WAL from the new base's rotation point is intact.
//! * *after the checkpoint, before the prune* — files below
//!   `wal_start_idx` are simply not read, and go at the next checkpoint.
//!
//! A present-but-damaged base is an error, not a cold start: the rename
//! guarantees it is never torn, so damage there is real. Every structural
//! claim a CRC-valid base or frame makes is still validated on load —
//! deliberately inconsistent input comes back as
//! [`RecoveryError::BadCheckpoint`], never as a panic.

use crate::group::{Group, PendingBlock};
use crate::index::{BlockIndex, VersionIndex};
use crate::segment::{Segment, SegmentState};
use crate::types::{GroupId, Lba, SegmentId};
use crate::wal::{begin_frame, end_frame, put_u32, put_u64, put_words, Reader, WalError};
use adapt_array::{crc32c, ArrayError, SinkReconcile, Traffic};
use serde::Serialize;

/// Name of the checkpoint base inside the durability directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.bin";

/// Name of the checkpoint delta log inside the durability directory.
pub const DELTA_FILE: &str = "checkpoint.delta";

const BASE_MAGIC: &[u8; 8] = b"ADPTCKB2";
const DELTA_MAGIC: u32 = u32::from_le_bytes(*b"CKD1");

/// Cap on LBAs read back from disk, so a corrupt value can never drive a
/// huge table growth. Far above any real configuration.
pub(crate) const MAX_LBAS: u64 = 64 * 1024 * 1024;

/// [`Dirty::seg_from`] value of a segment no WAL record has touched since
/// the previous checkpoint.
pub(crate) const CLEAN: u32 = u32::MAX;

/// Geometry stamp: a base only loads into an engine built with the same
/// shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GeometrySnap {
    pub block_bytes: u64,
    pub chunk_blocks: u32,
    pub segment_chunks: u32,
    pub user_blocks: u64,
    pub num_groups: u32,
    pub total_segments: u32,
}

/// The engine's scalar clocks and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Clocks {
    /// Simulated clock (µs).
    pub now_us: u64,
    /// Byte clock.
    pub user_bytes_clock: u64,
    /// Host operations seen.
    pub ops_seen: u64,
    /// Next segment open-sequence stamp.
    pub next_open_seq: u64,
    /// Next chunk flush sequence (== the sink's next chunk sequence).
    pub next_flush_seq: u64,
}

/// What every base and every delta frame starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    /// Generation of the base this is, or extends.
    pub generation: u64,
    /// 0 for a base; a frame's position in its generation's log, from 1.
    pub seq: u64,
    /// First WAL file index this checkpoint does *not* cover.
    pub wal_start_idx: u64,
    pub clocks: Clocks,
}

/// The logical engine state a checkpoint serializes, borrowed in place.
pub(crate) struct View<'a> {
    pub geometry: GeometrySnap,
    pub clocks: Clocks,
    pub segments: &'a [Segment],
    pub groups: &'a [Group],
    pub index: &'a BlockIndex,
    /// Durable version per LBA (arrival µs of the latest acknowledged
    /// write) — what crash verification checks against.
    pub versions: &'a VersionIndex,
}

/// What changed since the previous checkpoint (see
/// [`crate::checkpoint::CheckpointStore`]).
pub(crate) struct Dirty<'a> {
    /// Per segment id: [`CLEAN`], or — for a segment opened, appended to
    /// or reclaimed — the first slot a delta must carry for it.
    pub seg_from: &'a [u32],
    /// Slots overwritten in place.
    pub slots: &'a [(SegmentId, u32)],
    /// LBAs whose index entry or version may have changed.
    pub lbas: &'a [Lba],
}

/// One group as read back from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GroupRec {
    /// Open segment id, `SegmentId::MAX` when the group has none.
    pub open_segment: SegmentId,
    /// Lifetime user, GC, shadow and pad blocks, chunks, padded chunks.
    pub counters: [u64; 6],
    pub sealed: Vec<SegmentId>,
    pub pending: Vec<PendingBlock>,
}

/// One segment as read back from disk; the word runs borrow the file.
pub(crate) struct SegmentRec<'a> {
    pub id: SegmentId,
    pub group: GroupId,
    pub state: SegmentState,
    pub filled: u32,
    /// First slot the record carries words for.
    pub from: u32,
    pub open_seq: u64,
    pub created_user_bytes: u64,
    pub created_ts_us: u64,
    pub chunk_seqs: &'a [[u8; 8]],
    pub slots: &'a [[u8; 8]],
}

/// A parsed `checkpoint.bin`: CRC-checked and structurally sound, not
/// yet validated against an engine.
pub(crate) struct BaseImage<'a> {
    pub geometry: GeometrySnap,
    pub header: Header,
    pub groups: Vec<GroupRec>,
    pub segments: Vec<SegmentRec<'a>>,
    pub index: &'a [[u8; 8]],
    pub shadows: Vec<(Lba, SegmentId, u32)>,
    pub versions: &'a [[u8; 8]],
}

/// A parsed delta frame payload.
pub(crate) struct DeltaImage<'a> {
    pub header: Header,
    pub groups: Vec<GroupRec>,
    pub segments: Vec<SegmentRec<'a>>,
    pub patches: Vec<(SegmentId, u32, u64)>,
    pub lbas: &'a [[u8; 8]],
    pub index: &'a [[u8; 8]],
    pub versions: &'a [[u8; 8]],
    pub shadows: Vec<(Lba, SegmentId, u32)>,
}

// ---------------------------------------------------------------------
// Encoding: straight from engine memory into the caller's buffer
// ---------------------------------------------------------------------

fn put_header(out: &mut Vec<u8>, h: &Header) {
    let c = &h.clocks;
    for v in [
        h.generation,
        h.seq,
        h.wal_start_idx,
        c.now_us,
        c.user_bytes_clock,
        c.ops_seen,
        c.next_open_seq,
        c.next_flush_seq,
    ] {
        put_u64(out, v);
    }
}

fn put_groups(out: &mut Vec<u8>, groups: &[Group]) {
    put_u32(out, groups.len() as u32);
    for g in groups {
        put_u32(out, g.open_segment);
        for v in [g.user_blocks, g.gc_blocks, g.shadow_blocks, g.pad_blocks, g.chunks, g.pad_chunks]
        {
            put_u64(out, v);
        }
        put_u32(out, g.sealed.len() as u32);
        for &seg in &g.sealed {
            put_u32(out, seg);
        }
        put_u32(out, g.pending.len() as u32);
        for p in &g.pending {
            put_u64(out, p.lba);
            put_u64(out, p.arrival_us);
            out.push(u8::from(p.traffic == Traffic::Gc) | (u8::from(p.needs_sla) << 1));
        }
    }
}

fn put_segment(out: &mut Vec<u8>, s: &Segment, from: u32, chunk_blocks: u32) {
    let from = from.min(s.filled);
    put_u32(out, s.id);
    out.push(s.group);
    out.push(match s.state {
        SegmentState::Free => 0,
        SegmentState::Open => 1,
        SegmentState::Sealed => 2,
    });
    put_u32(out, s.filled);
    put_u32(out, from);
    put_u64(out, s.open_seq);
    put_u64(out, s.created_user_bytes);
    put_u64(out, s.created_ts_us);
    put_words(out, s.chunk_seqs.get((from / chunk_blocks) as usize..).unwrap_or_default());
    put_words(out, s.raw_slots().get(from as usize..s.filled as usize).unwrap_or_default());
}

fn put_shadows(out: &mut Vec<u8>, shadows: &[(Lba, SegmentId, u32)]) {
    put_u32(out, shadows.len() as u32);
    for &(lba, seg, off) in shadows {
        put_u64(out, lba);
        put_u32(out, seg);
        put_u32(out, off);
    }
}

/// Replace `out` with the framed base of `view` at `generation`.
pub(crate) fn encode_base(out: &mut Vec<u8>, generation: u64, wal_start_idx: u64, view: &View<'_>) {
    out.clear();
    out.extend_from_slice(BASE_MAGIC);
    let g = &view.geometry;
    put_u64(out, g.block_bytes);
    put_u32(out, g.chunk_blocks);
    put_u32(out, g.segment_chunks);
    put_u64(out, g.user_blocks);
    put_u32(out, g.num_groups);
    put_u32(out, g.total_segments);
    put_header(out, &Header { generation, seq: 0, wal_start_idx, clocks: view.clocks });
    put_groups(out, view.groups);
    let live = || view.segments.iter().filter(|s| s.state != SegmentState::Free);
    put_u32(out, live().count() as u32);
    for s in live() {
        put_segment(out, s, 0, g.chunk_blocks);
    }
    put_u64(out, view.index.words().len() as u64);
    put_words(out, view.index.words());
    put_shadows(out, &view.index.shadow_slots());
    put_u64(out, view.versions.words().len() as u64);
    put_words(out, view.versions.words());
    let crc = crc32c(&out[BASE_MAGIC.len()..]);
    put_u32(out, crc);
}

/// Replace `out` with one delta frame: `header`, every group, and the
/// parts of `view` that `dirty` names. `false` when the frame would not
/// fit its 32-bit length prefix (`out` is then unusable).
pub(crate) fn encode_delta(
    out: &mut Vec<u8>,
    header: &Header,
    view: &View<'_>,
    dirty: &Dirty<'_>,
) -> bool {
    out.clear();
    let start = begin_frame(out);
    put_u32(out, DELTA_MAGIC);
    put_header(out, header);
    put_groups(out, view.groups);
    let segments = || view.segments.iter().zip(dirty.seg_from).filter(|&(_, &from)| from != CLEAN);
    put_u32(out, segments().count() as u32);
    for (s, &from) in segments() {
        put_segment(out, s, from, view.geometry.chunk_blocks);
    }
    // The slots come from this engine's own tombstoning, so every one
    // resolves; the filter only keeps the count and the records in step.
    let current = |id: SegmentId, off: u32| {
        view.segments.get(id as usize)?.raw_slots().get(off as usize).copied()
    };
    let patches = || dirty.slots.iter().filter_map(|&(id, off)| Some((id, off, current(id, off)?)));
    put_u32(out, patches().count() as u32);
    for (id, off, word) in patches() {
        put_u32(out, id);
        put_u32(out, off);
        put_u64(out, word);
    }
    put_u32(out, dirty.lbas.len() as u32);
    put_words(out, dirty.lbas);
    let mut shadows = Vec::new();
    for &lba in dirty.lbas {
        let (word, shadow) = view.index.raw(lba);
        put_u64(out, word);
        if let Some((seg, off)) = shadow {
            shadows.push((lba, seg, off));
        }
    }
    for &lba in dirty.lbas {
        put_u64(out, view.versions.get(lba).unwrap_or(u64::MAX));
    }
    put_shadows(out, &shadows);
    end_frame(out, start)
}

// ---------------------------------------------------------------------
// Decoding: structure only; `crate::checkpoint` validates the content
// ---------------------------------------------------------------------

/// A `u32` element count, refused when the remaining bytes cannot hold
/// that many `unit_bytes`-sized elements — so a corrupt count can never
/// drive a huge allocation.
fn read_count(r: &mut Reader<'_>, unit_bytes: usize) -> Option<usize> {
    let n = r.u32()? as usize;
    (n.checked_mul(unit_bytes)? <= r.remaining()).then_some(n)
}

fn read_header(r: &mut Reader<'_>) -> Option<Header> {
    Some(Header {
        generation: r.u64()?,
        seq: r.u64()?,
        wal_start_idx: r.u64()?,
        clocks: Clocks {
            now_us: r.u64()?,
            user_bytes_clock: r.u64()?,
            ops_seen: r.u64()?,
            next_open_seq: r.u64()?,
            next_flush_seq: r.u64()?,
        },
    })
}

fn read_groups(r: &mut Reader<'_>) -> Option<Vec<GroupRec>> {
    let n = read_count(r, 60)?;
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        let open_segment = r.u32()?;
        let mut counters = [0u64; 6];
        for c in &mut counters {
            *c = r.u64()?;
        }
        let n_sealed = read_count(r, 4)?;
        let mut sealed = Vec::with_capacity(n_sealed);
        for _ in 0..n_sealed {
            sealed.push(r.u32()?);
        }
        let n_pending = read_count(r, 17)?;
        let mut pending = Vec::with_capacity(n_pending);
        for _ in 0..n_pending {
            let (lba, arrival_us, flags) = (r.u64()?, r.u64()?, r.u8()?);
            if flags > 3 {
                return None;
            }
            pending.push(PendingBlock {
                lba,
                traffic: if flags & 1 != 0 { Traffic::Gc } else { Traffic::User },
                arrival_us,
                needs_sla: flags & 2 != 0,
            });
        }
        groups.push(GroupRec { open_segment, counters, sealed, pending });
    }
    Some(groups)
}

fn read_segments<'a>(r: &mut Reader<'a>, chunk_blocks: u32) -> Option<Vec<SegmentRec<'a>>> {
    if chunk_blocks == 0 {
        return None;
    }
    let n = read_count(r, 38)?;
    let mut segments = Vec::with_capacity(n);
    for _ in 0..n {
        let (id, group) = (r.u32()?, r.u8()?);
        let state = match r.u8()? {
            0 => SegmentState::Free,
            1 => SegmentState::Open,
            2 => SegmentState::Sealed,
            _ => return None,
        };
        let (filled, from) = (r.u32()?, r.u32()?);
        if from > filled
            || !filled.is_multiple_of(chunk_blocks)
            || !from.is_multiple_of(chunk_blocks)
        {
            return None;
        }
        segments.push(SegmentRec {
            id,
            group,
            state,
            filled,
            from,
            open_seq: r.u64()?,
            created_user_bytes: r.u64()?,
            created_ts_us: r.u64()?,
            chunk_seqs: r.words(((filled - from) / chunk_blocks) as usize)?,
            slots: r.words((filled - from) as usize)?,
        });
    }
    Some(segments)
}

fn read_shadows(r: &mut Reader<'_>) -> Option<Vec<(Lba, SegmentId, u32)>> {
    let n = read_count(r, 16)?;
    let mut shadows = Vec::with_capacity(n);
    for _ in 0..n {
        shadows.push((r.u64()?, r.u32()?, r.u32()?));
    }
    Some(shadows)
}

/// A bulk run of `u64` words prefixed by its `u64` length.
fn read_table<'a>(r: &mut Reader<'a>) -> Option<&'a [[u8; 8]]> {
    let n = r.u64()?;
    r.words(usize::try_from(n).ok()?)
}

impl<'a> BaseImage<'a> {
    /// Parse the framed on-disk form; `Err` describes the defect. Never
    /// panics on arbitrary garbage.
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, String> {
        let short = || format!("checkpoint too short: {} bytes", bytes.len());
        let (magic, rest) = bytes.split_first_chunk::<8>().ok_or_else(short)?;
        let (body, crc) = rest.split_last_chunk::<4>().ok_or_else(short)?;
        if magic != BASE_MAGIC {
            return Err("bad checkpoint magic".into());
        }
        if u32::from_le_bytes(*crc) != crc32c(body) {
            return Err("checkpoint CRC mismatch".into());
        }
        Self::parse_body(body).ok_or_else(|| "checkpoint body malformed".into())
    }

    fn parse_body(body: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        let geometry = GeometrySnap {
            block_bytes: r.u64()?,
            chunk_blocks: r.u32()?,
            segment_chunks: r.u32()?,
            user_blocks: r.u64()?,
            num_groups: r.u32()?,
            total_segments: r.u32()?,
        };
        let image = BaseImage {
            geometry,
            header: read_header(&mut r)?,
            groups: read_groups(&mut r)?,
            segments: read_segments(&mut r, geometry.chunk_blocks)?,
            index: read_table(&mut r)?,
            shadows: read_shadows(&mut r)?,
            versions: read_table(&mut r)?,
        };
        (r.done() && image.header.seq == 0).then_some(image)
    }
}

impl<'a> DeltaImage<'a> {
    /// Parse one delta frame's payload; `None` for anything malformed.
    pub(crate) fn parse(payload: &'a [u8], chunk_blocks: u32) -> Option<Self> {
        let mut r = Reader::new(payload);
        if r.u32()? != DELTA_MAGIC {
            return None;
        }
        let header = read_header(&mut r)?;
        let groups = read_groups(&mut r)?;
        let segments = read_segments(&mut r, chunk_blocks)?;
        let n_patches = read_count(&mut r, 16)?;
        let mut patches = Vec::with_capacity(n_patches);
        for _ in 0..n_patches {
            patches.push((r.u32()?, r.u32()?, r.u64()?));
        }
        let n = read_count(&mut r, 24)?;
        let image = DeltaImage {
            header,
            groups,
            segments,
            patches,
            lbas: r.words(n)?,
            index: r.words(n)?,
            versions: r.words(n)?,
            shadows: read_shadows(&mut r)?,
        };
        r.done().then_some(image)
    }
}

/// What recovery did, for reporting and verification.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct RecoveryReport {
    /// Whether a checkpoint base was loaded (vs a cold start).
    pub checkpoint_loaded: bool,
    /// Delta frames applied on top of the base.
    pub deltas_applied: u64,
    /// The delta log ended in a torn or CRC-failing frame (a crash cut a
    /// delta append); recovery fell back to the frame before it.
    pub torn_delta: bool,
    /// The delta log held frames of an older generation (a crash landed
    /// between a base rename and the log truncation); they were skipped.
    pub stale_deltas: bool,
    /// WAL files scanned during replay.
    pub wal_files_scanned: u64,
    /// WAL records applied.
    pub records_applied: u64,
    /// Set when the WAL had a torn tail: `(file_idx, byte_offset)` where
    /// the durable prefix ends (repaired in place).
    pub torn_tail: Option<(u64, u64)>,
    /// Blocks restored into coalescing buffers.
    pub buffered_blocks_redone: u64,
    /// Chunk flushes re-applied from the WAL suffix.
    pub flushes_replayed: u64,
    /// How the sink reconciled its records against the replayed log.
    pub sink: SinkReconcile,
}

/// Why recovery failed. Recovery never panics on garbage input — every
/// malformed structure becomes one of these.
#[derive(Debug)]
pub enum RecoveryError {
    /// The WAL layer failed (I/O or simulated power loss during repair).
    Wal(WalError),
    /// The checkpoint base or a CRC-valid delta frame is damaged.
    BadCheckpoint {
        /// What was wrong.
        detail: String,
    },
    /// The checkpoint was taken by an engine with different geometry.
    GeometryMismatch {
        /// What differed.
        detail: String,
    },
    /// A WAL record is inconsistent with the reconstructed state (e.g. a
    /// flush into a segment that is not open) — the log and checkpoint
    /// disagree, so the state cannot be trusted.
    Replay {
        /// What was inconsistent.
        detail: String,
    },
    /// The sink could not reconcile its on-disk records.
    Sink(ArrayError),
    /// `recover()` was called on a builder without a durability config.
    NotConfigured,
}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> Self {
        RecoveryError::Wal(e)
    }
}

impl From<ArrayError> for RecoveryError {
    fn from(e: ArrayError) -> Self {
        RecoveryError::Sink(e)
    }
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Wal(e) => write!(f, "WAL failure during recovery: {e}"),
            RecoveryError::BadCheckpoint { detail } => write!(f, "corrupt checkpoint: {detail}"),
            RecoveryError::GeometryMismatch { detail } => {
                write!(f, "checkpoint geometry mismatch: {detail}")
            }
            RecoveryError::Replay { detail } => write!(f, "inconsistent WAL record: {detail}"),
            RecoveryError::Sink(e) => write!(f, "sink reconciliation failed: {e}"),
            RecoveryError::NotConfigured => {
                write!(f, "recover() requires a durability configuration")
            }
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Wal(e) => Some(e),
            RecoveryError::Sink(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::BlockEntry;
    use crate::placement::GroupKind;
    use crate::types::Slot;
    use crate::wal::split_frame;

    const GEOMETRY: GeometrySnap = GeometrySnap {
        block_bytes: 4096,
        chunk_blocks: 4,
        segment_chunks: 2,
        user_blocks: 64,
        num_groups: 2,
        total_segments: 3,
    };

    /// Segment 0 sealed, segment 1 open with one chunk, segment 2 free;
    /// one buffered block with a shadow copy, one without.
    struct Sample {
        segments: Vec<Segment>,
        groups: Vec<Group>,
        index: BlockIndex,
        versions: VersionIndex,
    }

    fn sample() -> Sample {
        let mut segments: Vec<Segment> = (0..3).map(|id| Segment::new(id, 8)).collect();
        let mut index = BlockIndex::default();
        let mut versions = VersionIndex::new();
        segments[0].open(0, 0, 0);
        for lba in 0..8u64 {
            let off = segments[0].append_slot(Slot::Block(lba));
            index.set(lba, BlockEntry::Durable { seg: 0, off });
            versions.insert(lba, 100 + lba);
        }
        segments[0].chunk_seqs = vec![0, 1];
        segments[0].seal();
        segments[1].open(1, 4096, 7);
        segments[1].open_seq = 1;
        segments[1].append_slot(Slot::Shadow(20));
        for _ in 0..3 {
            segments[1].append_slot(Slot::Pad);
        }
        segments[1].chunk_seqs = vec![2];
        index.set(20, BlockEntry::Pending { group: 0, shadow: Some((1, 0)) });
        index.set(21, BlockEntry::Pending { group: 0, shadow: None });
        versions.insert(20, 500);
        let mut groups = vec![Group::new(0, GroupKind::User), Group::new(1, GroupKind::Gc)];
        groups[0].sealed.push(0);
        groups[0].user_blocks = 8;
        groups[0].chunks = 2;
        for (lba, needs_sla) in [(20, false), (21, true)] {
            groups[0].pending.push(PendingBlock {
                lba,
                traffic: Traffic::User,
                arrival_us: 500,
                needs_sla,
            });
        }
        groups[1].open_segment = 1;
        groups[1].shadow_blocks = 1;
        groups[1].pad_blocks = 3;
        Sample { segments, groups, index, versions }
    }

    impl Sample {
        fn view(&self) -> View<'_> {
            View {
                geometry: GEOMETRY,
                clocks: Clocks {
                    now_us: 900,
                    user_bytes_clock: 40960,
                    ops_seen: 11,
                    next_open_seq: 2,
                    next_flush_seq: 3,
                },
                segments: &self.segments,
                groups: &self.groups,
                index: &self.index,
                versions: &self.versions,
            }
        }
    }

    fn words(run: &[[u8; 8]]) -> Vec<u64> {
        run.iter().map(|w| u64::from_le_bytes(*w)).collect()
    }

    #[test]
    fn base_roundtrip() {
        let s = sample();
        let mut bytes = Vec::new();
        encode_base(&mut bytes, 3, 17, &s.view());
        let base = BaseImage::parse(&bytes).unwrap();
        assert_eq!(base.geometry, GEOMETRY);
        assert_eq!(
            (base.header.generation, base.header.seq, base.header.wal_start_idx),
            (3, 0, 17)
        );
        assert_eq!(base.header.clocks, s.view().clocks);
        assert_eq!(base.groups.len(), 2);
        assert_eq!(base.groups[0].sealed, vec![0]);
        assert_eq!(base.groups[0].pending, s.groups[0].pending);
        assert_eq!(base.groups[0].counters, [8, 0, 0, 0, 2, 0]);
        assert_eq!(base.groups[1].open_segment, 1);
        // Free segments are not stored; an open one only up to `filled`.
        assert_eq!(base.segments.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(words(base.segments[0].slots), s.segments[0].raw_slots());
        assert_eq!(words(base.segments[1].slots), s.segments[1].raw_slots()[..4]);
        assert_eq!(words(base.segments[1].chunk_seqs), vec![2]);
        assert_eq!(base.segments[1].state, SegmentState::Open);
        assert_eq!(words(base.index), s.index.words());
        assert_eq!(base.shadows, vec![(20, 1, 0)]);
        assert_eq!(words(base.versions), s.versions.words());
    }

    #[test]
    fn delta_roundtrip_carries_only_what_is_dirty() {
        let s = sample();
        let header = Header { generation: 3, seq: 2, wal_start_idx: 18, clocks: s.view().clocks };
        let dirty = Dirty { seg_from: &[CLEAN, 0, 0], slots: &[(0, 5)], lbas: &[21, 20, 63] };
        let mut frame = Vec::new();
        assert!(encode_delta(&mut frame, &header, &s.view(), &dirty));
        let (payload, next) = split_frame(&frame, 0, u32::MAX).unwrap();
        assert_eq!(next, frame.len());
        let delta = DeltaImage::parse(payload, GEOMETRY.chunk_blocks).unwrap();
        assert_eq!(delta.header, header);
        assert_eq!(delta.groups.len(), 2);
        assert_eq!(
            delta.segments.iter().map(|r| (r.id, r.state)).collect::<Vec<_>>(),
            vec![(1, SegmentState::Open), (2, SegmentState::Free)]
        );
        assert_eq!(delta.patches, vec![(0, 5, Slot::Block(5).encode())]);
        assert_eq!(words(delta.lbas), vec![21, 20, 63]);
        assert_eq!(words(delta.index), vec![s.index.raw(21).0, s.index.raw(20).0, 0]);
        assert_eq!(words(delta.versions), vec![u64::MAX, 500, u64::MAX]);
        assert_eq!(delta.shadows, vec![(20, 1, 0)]);

        // An appended-to segment carries only the new chunk's words.
        let dirty = Dirty { seg_from: &[CLEAN, 4], slots: &[], lbas: &[] };
        let mut s2 = sample();
        for lba in 30..34 {
            s2.segments[1].append_slot(Slot::Block(lba));
        }
        s2.segments[1].chunk_seqs.push(3);
        assert!(encode_delta(&mut frame, &header, &s2.view(), &dirty));
        let (payload, _) = split_frame(&frame, 0, u32::MAX).unwrap();
        let delta = DeltaImage::parse(payload, GEOMETRY.chunk_blocks).unwrap();
        assert_eq!((delta.segments[0].from, delta.segments[0].filled), (4, 8));
        assert_eq!(words(delta.segments[0].slots), vec![30, 31, 32, 33]);
        assert_eq!(words(delta.segments[0].chunk_seqs), vec![3]);
    }

    #[test]
    fn every_truncation_and_byte_flip_is_detected_not_panicked() {
        let s = sample();
        let mut base = Vec::new();
        encode_base(&mut base, 1, 0, &s.view());
        for cut in 0..base.len() {
            assert!(BaseImage::parse(&base[..cut]).is_err(), "base prefix {cut} accepted");
        }
        for i in 0..base.len() {
            let mut mangled = base.clone();
            mangled[i] ^= 0x10;
            assert!(BaseImage::parse(&mangled).is_err(), "base flip at {i} accepted");
            // Past the CRC (deliberate damage) the body parser may say
            // yes or no, never panic.
            let _ = BaseImage::parse_body(&mangled[BASE_MAGIC.len()..base.len() - 4]);
        }

        let header = Header { generation: 1, seq: 1, wal_start_idx: 1, clocks: Clocks::default() };
        let dirty = Dirty { seg_from: &[CLEAN, 0], slots: &[(1, 0)], lbas: &[20, 21] };
        let mut frame = Vec::new();
        assert!(encode_delta(&mut frame, &header, &s.view(), &dirty));
        for cut in 0..frame.len() {
            assert!(
                split_frame(&frame[..cut], 0, u32::MAX).is_none(),
                "frame prefix {cut} accepted"
            );
        }
        for i in 0..frame.len() {
            let mut mangled = frame.clone();
            mangled[i] ^= 0x10;
            assert!(split_frame(&mangled, 0, u32::MAX).is_none(), "frame flip at {i} accepted");
        }
        let (payload, _) = split_frame(&frame, 0, u32::MAX).unwrap();
        for cut in 0..payload.len() {
            assert!(DeltaImage::parse(&payload[..cut], 4).is_none(), "payload prefix {cut}");
        }
        for i in 0..payload.len() {
            let mut mangled = payload.to_vec();
            mangled[i] = mangled[i].wrapping_add(0x80);
            let _ = DeltaImage::parse(&mangled, 4);
        }
        assert!(DeltaImage::parse(payload, 0).is_none(), "zero chunk size");
        assert!(DeltaImage::parse(payload, 3).is_none(), "slot counts off the chunk grid");
    }
}

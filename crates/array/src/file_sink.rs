//! Durable on-disk array backend: per-device segment files.
//!
//! [`FileArraySink`] implements the same [`ArraySink`] trait as
//! [`CountingArray`], so `lss::Engine` runs unchanged on either backend —
//! it delegates all accounting to an inner [`CountingArray`] (location and
//! statistics parity is exact) and additionally persists one fixed-size,
//! CRC32C-framed *chunk record* per chunk write into per-device files.
//!
//! Because the left-symmetric rotation gives every device exactly one
//! chunk per stripe (one data column or one of the `m` parity chunks),
//! each device's record sequence is strictly
//! stripe-ordered: the record for stripe `s` on device `d` lives in file
//! `s / stripes_per_file` at offset `(s % stripes_per_file) ×
//! RECORD_BYTES`. Files are append-only and sealed when full; the
//! superblock (generation counter plus geometry) is replaced atomically
//! via temp-write-and-rename on every seal and checkpoint.
//!
//! The record is an accounting-level digest (addresses, traffic-class byte
//! split, CRC) rather than the 64 KiB payload — the simulator models
//! placement and wear, not contents — but every durability-relevant
//! mechanism is real: volatile write caching, torn tails on power loss,
//! CRC-validated scans, and atomic superblock replacement (see
//! [`crate::media`]).

use crate::config::ArrayConfig;
use crate::counters::ArrayStats;
use crate::crc::crc32c;
use crate::error::{ArrayError, StorageFailure};
use crate::fault::{ArrayHealth, ReadOutcome};
use crate::layout::{ChunkLocation, StripeLayout};
use crate::media::{atomic_replace, MediaError, MediaFile, PowerBudget, WriteTag};
use crate::sink::{ArraySink, ChunkFlush, CountingArray, RecoveredFlush, SinkReconcile};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bytes per on-disk chunk record.
pub const RECORD_BYTES: u64 = 64;

const RECORD_MAGIC: u32 = 0x4144_434B; // "ADCK"
const RECORD_VERSION: u16 = 1;
const SUPERBLOCK_MAGIC: u32 = 0x4144_5342; // "ADSB"
                                           // v1 had no parity count (RAID-5 implied); v2 stores `m` in the two
                                           // formerly-reserved bytes at offset 6 so any `k + m` geometry round-trips.
const SUPERBLOCK_VERSION: u16 = 2;
const KIND_DATA: u8 = 0;
const KIND_PARITY: u8 = 1;

/// Tuning knobs for the durable backend.
#[derive(Debug, Clone)]
pub struct FileSinkOptions {
    /// Issue real `fdatasync` calls on sync points. Off by default: tests
    /// and crash simulation get durability *semantics* from the media
    /// layer's explicit sync points without paying syscall latency.
    pub fsync: bool,
    /// Stripes (records) per device file before the file is sealed and the
    /// superblock rolls forward.
    pub stripes_per_file: u64,
    /// Power budget shared with the rest of the simulated machine; `None`
    /// means power never fails.
    pub budget: Option<Arc<PowerBudget>>,
}

impl Default for FileSinkOptions {
    fn default() -> Self {
        Self { fsync: false, stripes_per_file: 256, budget: None }
    }
}

/// Typed error for the durable backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileSinkError {
    /// The media layer failed (power loss or real I/O error).
    Media(MediaError),
    /// A record or superblock failed validation during a scan.
    Corrupt { path: PathBuf, offset: u64, detail: String },
    /// The on-disk geometry disagrees with the configured geometry.
    GeometryMismatch { detail: String },
    /// Recovery needed a record that is neither on disk nor replayable
    /// from the WAL tail — pre-checkpoint loss the backend cannot repair.
    MissingRecord { chunk_seq: u64 },
}

impl std::fmt::Display for FileSinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileSinkError::Media(e) => write!(f, "{e}"),
            FileSinkError::Corrupt { path, offset, detail } => {
                write!(f, "corrupt record in {} at byte {offset}: {detail}", path.display())
            }
            FileSinkError::GeometryMismatch { detail } => {
                write!(f, "on-disk geometry mismatch: {detail}")
            }
            FileSinkError::MissingRecord { chunk_seq } => {
                write!(f, "chunk record {chunk_seq} missing and not recoverable from WAL")
            }
        }
    }
}

impl std::error::Error for FileSinkError {}

impl From<MediaError> for FileSinkError {
    fn from(e: MediaError) -> Self {
        FileSinkError::Media(e)
    }
}

impl From<FileSinkError> for ArrayError {
    fn from(e: FileSinkError) -> Self {
        let failure = match e {
            FileSinkError::Media(MediaError::PowerLoss) => StorageFailure::PowerLoss,
            FileSinkError::Media(MediaError::Io(_)) => StorageFailure::Io,
            FileSinkError::Corrupt { .. } => StorageFailure::BadRecord,
            FileSinkError::GeometryMismatch { .. } => StorageFailure::BadRecord,
            FileSinkError::MissingRecord { .. } => StorageFailure::MissingRecord,
        };
        ArrayError::Storage { failure }
    }
}

impl From<MediaError> for ArrayError {
    fn from(e: MediaError) -> Self {
        ArrayError::from(FileSinkError::from(e))
    }
}

impl crate::error::Retryable for MediaError {
    /// Power loss ends the run and I/O errors need operator intervention:
    /// neither resolves by reissuing the same write.
    fn is_retryable(&self) -> bool {
        false
    }
}

impl crate::error::Retryable for FileSinkError {
    fn is_retryable(&self) -> bool {
        match self {
            FileSinkError::Media(e) => crate::error::Retryable::is_retryable(e),
            // Corruption and missing records describe on-disk state: the
            // same scan reproduces the same verdict.
            FileSinkError::Corrupt { .. }
            | FileSinkError::GeometryMismatch { .. }
            | FileSinkError::MissingRecord { .. } => false,
        }
    }
}

/// One fixed-size on-disk record describing a chunk write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkRecord {
    kind: u8,
    group: u8,
    chunk_seq: u64,
    stripe: u64,
    device: u32,
    column: u32,
    seg: u32,
    chunk_in_seg: u32,
    user_bytes: u32,
    gc_bytes: u32,
    shadow_bytes: u32,
    pad_bytes: u32,
    /// CRC32C of the chunk payload when the write arrived through the
    /// borrowed-slice path ([`ArraySink::write_chunk_payload`]); zero for
    /// payload-less accounting writes. Streamed straight off the caller's
    /// slice — the payload is never copied into an interim buffer.
    payload_crc: u32,
}

impl ChunkRecord {
    fn data(flush: &ChunkFlush, loc: &ChunkLocation, chunk_seq: u64, payload_crc: u32) -> Self {
        Self {
            kind: KIND_DATA,
            group: flush.group,
            chunk_seq,
            stripe: loc.stripe,
            device: loc.device as u32,
            column: loc.column as u32,
            seg: flush.seg,
            chunk_in_seg: flush.chunk_in_seg,
            user_bytes: flush.user_bytes as u32,
            gc_bytes: flush.gc_bytes as u32,
            shadow_bytes: flush.shadow_bytes as u32,
            pad_bytes: flush.pad_bytes as u32,
            payload_crc,
        }
    }

    /// The record for parity row `j` of `stripe`; `shard = k + j` names
    /// the parity chunk's shard index (for `m = 1` this equals the old
    /// "column = data_columns" encoding byte-for-byte).
    fn parity(stripe: u64, device: usize, shard: usize) -> Self {
        Self {
            kind: KIND_PARITY,
            group: 0,
            chunk_seq: stripe,
            stripe,
            device: device as u32,
            column: shard as u32,
            seg: 0,
            chunk_in_seg: 0,
            user_bytes: 0,
            gc_bytes: 0,
            shadow_bytes: 0,
            pad_bytes: 0,
            payload_crc: 0,
        }
    }

    fn to_flush(self) -> ChunkFlush {
        ChunkFlush {
            user_bytes: self.user_bytes as u64,
            gc_bytes: self.gc_bytes as u64,
            shadow_bytes: self.shadow_bytes as u64,
            pad_bytes: self.pad_bytes as u64,
            group: self.group,
            seg: self.seg,
            chunk_in_seg: self.chunk_in_seg,
        }
    }

    fn encode(&self) -> [u8; RECORD_BYTES as usize] {
        let mut b = [0u8; RECORD_BYTES as usize];
        b[0..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
        b[4..6].copy_from_slice(&RECORD_VERSION.to_le_bytes());
        b[6] = self.kind;
        b[7] = self.group;
        b[8..16].copy_from_slice(&self.chunk_seq.to_le_bytes());
        b[16..24].copy_from_slice(&self.stripe.to_le_bytes());
        b[24..28].copy_from_slice(&self.device.to_le_bytes());
        b[28..32].copy_from_slice(&self.column.to_le_bytes());
        b[32..36].copy_from_slice(&self.seg.to_le_bytes());
        b[36..40].copy_from_slice(&self.chunk_in_seg.to_le_bytes());
        b[40..44].copy_from_slice(&self.user_bytes.to_le_bytes());
        b[44..48].copy_from_slice(&self.gc_bytes.to_le_bytes());
        b[48..52].copy_from_slice(&self.shadow_bytes.to_le_bytes());
        b[52..56].copy_from_slice(&self.pad_bytes.to_le_bytes());
        // Formerly reserved-zero; zero still means "no payload digest".
        b[56..60].copy_from_slice(&self.payload_crc.to_le_bytes());
        let crc = crc32c(&b[..60]);
        b[60..64].copy_from_slice(&crc.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> Option<Self> {
        if b.len() < RECORD_BYTES as usize {
            return None;
        }
        let u32_at = |i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        if u32_at(0) != RECORD_MAGIC {
            return None;
        }
        if u16::from_le_bytes(b[4..6].try_into().unwrap()) != RECORD_VERSION {
            return None;
        }
        if crc32c(&b[..60]) != u32_at(60) {
            return None;
        }
        Some(Self {
            kind: b[6],
            group: b[7],
            chunk_seq: u64_at(8),
            stripe: u64_at(16),
            device: u32_at(24),
            column: u32_at(28),
            seg: u32_at(32),
            chunk_in_seg: u32_at(36),
            user_bytes: u32_at(40),
            gc_bytes: u32_at(44),
            shadow_bytes: u32_at(48),
            pad_bytes: u32_at(52),
            payload_crc: u32_at(56),
        })
    }
}

enum Backing {
    /// Normal operation: one open media file per device.
    Active { files: Vec<MediaFile> },
    /// Opened for recovery: the CRC-valid record prefix scanned from each
    /// device, waiting for [`ArraySink::recover_reconcile`].
    Recovering { scanned: Vec<Vec<ChunkRecord>> },
}

/// The durable array backend. See the module docs for the on-disk layout.
pub struct FileArraySink {
    dir: PathBuf,
    opts: FileSinkOptions,
    counting: CountingArray,
    backing: Backing,
    /// Records appended per device (drives file positions).
    dev_records: Vec<u64>,
    generation: u64,
    /// First media failure observed; once set, the sink stops persisting
    /// (the machine is off) while accounting continues so the engine can
    /// finish its op and surface the loss through the WAL path.
    failed: Option<FileSinkError>,
}

impl std::fmt::Debug for FileArraySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileArraySink")
            .field("dir", &self.dir)
            .field("generation", &self.generation)
            .field("chunks_written", &self.counting.chunks_written())
            .field("failed", &self.failed)
            .finish()
    }
}

impl FileArraySink {
    /// Create a fresh on-disk array at `dir`, clearing any previous one.
    pub fn create(
        cfg: ArrayConfig,
        dir: impl Into<PathBuf>,
        opts: FileSinkOptions,
    ) -> Result<Self, FileSinkError> {
        let dir = dir.into();
        for d in 0..cfg.num_devices {
            let dev = dir.join(format!("dev{d}"));
            if dev.exists() {
                std::fs::remove_dir_all(&dev).map_err(MediaError::from)?;
            }
            std::fs::create_dir_all(&dev).map_err(MediaError::from)?;
        }
        let _ = std::fs::remove_file(dir.join("superblock.bin"));
        let mut sink = Self {
            dir,
            counting: CountingArray::new(cfg),
            backing: Backing::Active { files: Vec::new() },
            dev_records: vec![0; cfg.num_devices],
            generation: 0,
            failed: None,
            opts,
        };
        let files = (0..cfg.num_devices)
            .map(|d| sink.open_file(d, 0, true))
            .collect::<Result<Vec<_>, _>>()?;
        sink.backing = Backing::Active { files };
        sink.write_superblock()?;
        Ok(sink)
    }

    /// Open an existing on-disk array for recovery: parse the superblock
    /// and scan every device's files, keeping the longest CRC-valid,
    /// stripe-consistent record prefix per device. The sink is inert until
    /// [`ArraySink::recover_reconcile`] aligns it with the recovered log.
    pub fn open_recovery(
        cfg: ArrayConfig,
        dir: impl Into<PathBuf>,
        opts: FileSinkOptions,
    ) -> Result<Self, FileSinkError> {
        let dir = dir.into();
        let generation = read_superblock(&dir, &cfg)?;
        let mut scanned = Vec::with_capacity(cfg.num_devices);
        let mut dev_records = Vec::with_capacity(cfg.num_devices);
        for d in 0..cfg.num_devices {
            let recs = scan_device(&dir, d, opts.stripes_per_file);
            dev_records.push(recs.len() as u64);
            scanned.push(recs);
        }
        Ok(Self {
            dir,
            counting: CountingArray::new(cfg),
            backing: Backing::Recovering { scanned },
            dev_records,
            generation,
            failed: None,
            opts,
        })
    }

    /// The first media failure observed, if any (power loss in a crash
    /// simulation, or a real I/O error).
    pub fn failure(&self) -> Option<&FileSinkError> {
        self.failed.as_ref()
    }

    /// Superblock generation counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Make everything written so far durable and roll the superblock.
    pub fn sync_all(&mut self) -> Result<(), FileSinkError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if let Err(e) = self.try_sync_files() {
            self.failed = Some(e.clone());
            return Err(e);
        }
        if let Err(e) = self.write_superblock() {
            self.failed = Some(e.clone());
            return Err(e);
        }
        Ok(())
    }

    fn try_sync_files(&mut self) -> Result<(), FileSinkError> {
        let Backing::Active { files } = &mut self.backing else {
            return Ok(());
        };
        for f in files.iter_mut() {
            f.sync()?;
        }
        Ok(())
    }

    fn file_path(&self, device: usize, file_idx: u64) -> PathBuf {
        self.dir.join(format!("dev{device}")).join(format!("f{file_idx:06}.seg"))
    }

    fn open_file(
        &self,
        device: usize,
        file_idx: u64,
        truncate: bool,
    ) -> Result<MediaFile, FileSinkError> {
        let path = self.file_path(device, file_idx);
        let f = if truncate {
            MediaFile::create(path, self.opts.budget.clone(), WriteTag::SinkRecord, self.opts.fsync)
        } else {
            MediaFile::append_to(
                path,
                self.opts.budget.clone(),
                WriteTag::SinkRecord,
                self.opts.fsync,
            )
        }?;
        Ok(f)
    }

    fn write_superblock(&mut self) -> Result<(), FileSinkError> {
        self.generation += 1;
        let cfg = *self.counting.config();
        let mut b = Vec::with_capacity(48);
        b.extend_from_slice(&SUPERBLOCK_MAGIC.to_le_bytes());
        b.extend_from_slice(&SUPERBLOCK_VERSION.to_le_bytes());
        b.extend_from_slice(&(cfg.parity_devices as u16).to_le_bytes());
        b.extend_from_slice(&self.generation.to_le_bytes());
        b.extend_from_slice(&(cfg.num_devices as u32).to_le_bytes());
        b.extend_from_slice(&(cfg.chunk_bytes as u32).to_le_bytes());
        b.extend_from_slice(&self.opts.stripes_per_file.to_le_bytes());
        let crc = crc32c(&b);
        b.extend_from_slice(&crc.to_le_bytes());
        atomic_replace(
            &self.dir.join("superblock.bin"),
            &b,
            self.opts.budget.as_ref(),
            WriteTag::Superblock,
            self.opts.fsync,
        )?;
        Ok(())
    }

    fn append_record(&mut self, device: usize, rec: ChunkRecord) {
        if let Backing::Active { files } = &mut self.backing {
            files[device].write(&rec.encode());
            self.dev_records[device] += 1;
        }
    }

    /// Seal the just-completed files and open the next generation.
    fn roll_files(&mut self) -> Result<(), FileSinkError> {
        let n = self.counting.config().num_devices;
        let next_idx = self.dev_records[0] / self.opts.stripes_per_file;
        let files =
            (0..n).map(|d| self.open_file(d, next_idx, true)).collect::<Result<Vec<_>, _>>()?;
        self.backing = Backing::Active { files };
        self.write_superblock()
    }

    fn read_record(&mut self, device: usize, stripe: u64) -> Option<ChunkRecord> {
        let spf = self.opts.stripes_per_file;
        let file_idx = stripe / spf;
        let offset = (stripe % spf) * RECORD_BYTES;
        let mut buf = [0u8; RECORD_BYTES as usize];
        // The file open for appends (its tail may still be volatile).
        // Files roll together on *global* stripe completion, so the open
        // index must come from the global stripe count — a device that
        // already wrote its record for the last stripe of a file is still
        // appending to that file until the whole stripe completes and
        // `roll_files` runs.
        let cur_file = self.counting.stats().stripes_completed / spf;
        match &mut self.backing {
            Backing::Active { files } if file_idx == cur_file => {
                // Possibly still in the open file's volatile buffer.
                files[device].read_at(offset, &mut buf).ok()?;
            }
            Backing::Active { .. } => {
                let path = self.file_path(device, file_idx);
                let mut f = std::fs::File::open(path).ok()?;
                f.seek(SeekFrom::Start(offset)).ok()?;
                f.read_exact(&mut buf).ok()?;
            }
            Backing::Recovering { scanned } => {
                return scanned[device].get(stripe as usize).copied();
            }
        }
        ChunkRecord::decode(&buf)
    }
}

fn read_superblock(dir: &Path, cfg: &ArrayConfig) -> Result<u64, FileSinkError> {
    let path = dir.join("superblock.bin");
    let Ok(b) = std::fs::read(&path) else {
        // No superblock: a crash before the first generation landed. The
        // record CRCs carry the truth; start from generation zero.
        return Ok(0);
    };
    let corrupt = |detail: &str| FileSinkError::Corrupt {
        path: path.clone(),
        offset: 0,
        detail: detail.to_string(),
    };
    if b.len() < 36 {
        return Err(corrupt("short superblock"));
    }
    if u32::from_le_bytes(b[0..4].try_into().unwrap()) != SUPERBLOCK_MAGIC {
        return Err(corrupt("bad magic"));
    }
    if crc32c(&b[..32]) != u32::from_le_bytes(b[32..36].try_into().unwrap()) {
        return Err(corrupt("superblock CRC mismatch"));
    }
    let parity_devices = match u16::from_le_bytes(b[4..6].try_into().unwrap()) {
        1 => 1, // v1 predates the parity field: RAID-5 implied
        2 => u16::from_le_bytes(b[6..8].try_into().unwrap()) as usize,
        v => return Err(corrupt(&format!("unsupported superblock version {v}"))),
    };
    let generation = u64::from_le_bytes(b[8..16].try_into().unwrap());
    let num_devices = u32::from_le_bytes(b[16..20].try_into().unwrap()) as usize;
    let chunk_bytes = u32::from_le_bytes(b[20..24].try_into().unwrap()) as u64;
    if num_devices != cfg.num_devices
        || chunk_bytes != cfg.chunk_bytes
        || parity_devices != cfg.parity_devices
    {
        return Err(FileSinkError::GeometryMismatch {
            detail: format!(
                "superblock says {num_devices} devices ({parity_devices} parity) × \
                 {chunk_bytes} B chunks, config says {} ({}) × {}",
                cfg.num_devices, cfg.parity_devices, cfg.chunk_bytes
            ),
        });
    }
    Ok(generation)
}

/// Scan one device's files, returning the longest valid record prefix: a
/// record is kept only if it CRC-verifies, names this device, and sits at
/// the stripe its file position implies. The first violation (torn tail,
/// bit rot, stale file) ends the prefix.
fn scan_device(dir: &Path, device: usize, stripes_per_file: u64) -> Vec<ChunkRecord> {
    let mut out = Vec::new();
    let dev_dir = dir.join(format!("dev{device}"));
    for file_idx in 0.. {
        let path = dev_dir.join(format!("f{file_idx:06}.seg"));
        let Ok(bytes) = std::fs::read(&path) else {
            return out;
        };
        for (i, chunk) in bytes.chunks(RECORD_BYTES as usize).enumerate() {
            let expect_stripe = file_idx * stripes_per_file + i as u64;
            match ChunkRecord::decode(chunk) {
                Some(rec) if rec.device as usize == device && rec.stripe == expect_stripe => {
                    out.push(rec)
                }
                _ => return out,
            }
        }
        if bytes.len() < (stripes_per_file * RECORD_BYTES) as usize {
            // Partial file: nothing can follow it.
            return out;
        }
    }
    unreachable!()
}

impl FileArraySink {
    /// Shared body of the payload-less and borrowed-slice write paths:
    /// account the chunk, frame its digest record (carrying `payload_crc`
    /// when the payload was provided), and handle stripe-close sync/roll.
    fn write_chunk_framed(&mut self, flush: ChunkFlush, payload_crc: u32) -> ChunkLocation {
        let chunk_seq = self.counting.chunks_written();
        let (loc, closed) = self.counting.append(&flush);
        if self.failed.is_some() {
            return loc; // power is off: accounting only
        }
        debug_assert!(
            matches!(self.backing, Backing::Active { .. }),
            "write_chunk before recover_reconcile"
        );
        self.append_record(loc.device, ChunkRecord::data(&flush, &loc, chunk_seq, payload_crc));
        if closed {
            let layout = *self.counting.layout();
            let k = layout.config().data_columns();
            for j in 0..layout.config().parity_devices {
                let pdev = layout.parity_device_j(loc.stripe, j);
                self.append_record(pdev, ChunkRecord::parity(loc.stripe, pdev, k + j));
            }
            // Stripe complete: make it durable, then seal files on the
            // stripes_per_file boundary.
            if let Err(e) = self.try_sync_files() {
                self.failed = Some(e);
                return loc;
            }
            if (loc.stripe + 1).is_multiple_of(self.opts.stripes_per_file) {
                if let Err(e) = self.roll_files() {
                    self.failed = Some(e);
                }
            }
        }
        loc
    }
}

impl ArraySink for FileArraySink {
    fn write_chunk(&mut self, flush: ChunkFlush) -> ChunkLocation {
        self.write_chunk_framed(flush, 0)
    }

    fn write_chunk_payload(&mut self, flush: ChunkFlush, payload: &[u8]) -> ChunkLocation {
        debug_assert_eq!(payload.len() as u64, self.counting.config().chunk_bytes);
        // Zero-copy: the digest is streamed straight off the borrowed
        // slice; the payload never lands in an interim buffer.
        self.write_chunk_framed(flush, crc32c(payload))
    }

    fn config(&self) -> &ArrayConfig {
        self.counting.config()
    }

    fn stats(&self) -> &ArrayStats {
        self.counting.stats()
    }

    fn health(&self) -> ArrayHealth {
        ArrayHealth::Healthy
    }

    fn read_chunk_at(&mut self, loc: ChunkLocation) -> Result<ReadOutcome, ArrayError> {
        let chunk = self.config().chunk_bytes;
        let k = self.config().data_columns() as u64;
        let chunk_seq = loc.stripe * k + loc.column as u64;
        if chunk_seq >= self.counting.chunks_written() {
            return Err(ArrayError::MissingChunk { loc });
        }
        match self.read_record(loc.device, loc.stripe) {
            Some(rec)
                if rec.kind == KIND_DATA
                    && rec.chunk_seq == chunk_seq
                    && rec.column as usize == loc.column =>
            {
                Ok(ReadOutcome::normal(chunk))
            }
            _ => Err(ArrayError::ChecksumMismatch { loc }),
        }
    }

    fn sync_for_checkpoint(&mut self) -> Result<(), ArrayError> {
        self.sync_all().map_err(ArrayError::from)
    }

    fn recover_reconcile(
        &mut self,
        next_chunk_seq: u64,
        tail: &[RecoveredFlush],
    ) -> Result<SinkReconcile, ArrayError> {
        let Backing::Recovering { scanned } =
            std::mem::replace(&mut self.backing, Backing::Active { files: Vec::new() })
        else {
            return Err(ArrayError::Storage { failure: StorageFailure::Unsupported });
        };
        let cfg = *self.counting.config();
        let layout = StripeLayout::new(cfg);
        let k = cfg.data_columns();
        let mut report = SinkReconcile {
            records_scanned: scanned.iter().map(|v| v.len() as u64).sum(),
            ..SinkReconcile::default()
        };

        // Index the scanned records by global chunk sequence, and the WAL
        // tail digests likewise.
        let mut on_disk: std::collections::BTreeMap<u64, ChunkRecord> =
            std::collections::BTreeMap::new();
        let mut parity_on_disk: std::collections::BTreeMap<(u64, u32), ChunkRecord> =
            std::collections::BTreeMap::new();
        for recs in &scanned {
            for rec in recs {
                if rec.kind == KIND_DATA {
                    on_disk.insert(rec.chunk_seq, *rec);
                } else {
                    parity_on_disk.insert((rec.stripe, rec.device), *rec);
                }
            }
        }
        let from_wal: std::collections::BTreeMap<u64, ChunkFlush> =
            tail.iter().map(|r| (r.chunk_seq, r.flush)).collect();

        // Rebuild the authoritative record stream: every chunk the
        // recovered log proves durable, replayed through the counting
        // model so lifetime statistics and the layout cursor are exact.
        let mut counting = CountingArray::new(cfg);
        let mut rebuilt: Vec<Vec<ChunkRecord>> = vec![Vec::new(); cfg.num_devices];
        for seq in 0..next_chunk_seq {
            let (flush, payload_crc) = match on_disk.get(&seq) {
                Some(rec) => {
                    report.records_reused += 1;
                    (rec.to_flush(), rec.payload_crc)
                }
                None => match from_wal.get(&seq) {
                    // WAL records carry accounting only — a payload digest
                    // lost with the torn record cannot be reinvented.
                    Some(flush) => {
                        report.records_restored += 1;
                        (*flush, 0)
                    }
                    None => {
                        return Err(FileSinkError::MissingRecord { chunk_seq: seq }.into());
                    }
                },
            };
            let (loc, closed) = counting.append(&flush);
            rebuilt[loc.device].push(ChunkRecord::data(&flush, &loc, seq, payload_crc));
            if closed {
                for j in 0..cfg.parity_devices {
                    let pdev = layout.parity_device_j(loc.stripe, j);
                    if parity_on_disk.remove(&(loc.stripe, pdev as u32)).is_some() {
                        report.records_reused += 1;
                    } else {
                        report.records_restored += 1;
                    }
                    rebuilt[pdev].push(ChunkRecord::parity(loc.stripe, pdev, k + j));
                }
            }
        }
        report.records_discarded = report.records_scanned.saturating_sub(report.records_reused);

        // Rewrite the device files from the rebuilt stream (each full or
        // partial file installed atomically), delete stale later files,
        // and reopen the live tail for appends.
        let spf = self.opts.stripes_per_file;
        for (d, recs) in rebuilt.iter().enumerate() {
            let dev_dir = self.dir.join(format!("dev{d}"));
            std::fs::create_dir_all(&dev_dir)
                .map_err(|e| ArrayError::from(FileSinkError::Media(e.into())))?;
            let n_files = recs.len().div_ceil(spf as usize);
            for file_idx in 0..n_files {
                let lo = file_idx * spf as usize;
                let hi = (lo + spf as usize).min(recs.len());
                let mut bytes = Vec::with_capacity((hi - lo) * RECORD_BYTES as usize);
                for rec in &recs[lo..hi] {
                    bytes.extend_from_slice(&rec.encode());
                }
                atomic_replace(
                    &self.file_path(d, file_idx as u64),
                    &bytes,
                    self.opts.budget.as_ref(),
                    WriteTag::SinkRecord,
                    self.opts.fsync,
                )
                .map_err(|e| ArrayError::from(FileSinkError::Media(e)))?;
            }
            // Drop files beyond the rebuilt stream (unacked tail). The
            // live append file is recreated below if needed.
            let mut stale_idx = n_files as u64;
            while std::fs::remove_file(self.file_path(d, stale_idx)).is_ok() {
                stale_idx += 1;
            }
        }
        self.dev_records = rebuilt.iter().map(|v| v.len() as u64).collect();
        let cur_idx = self.dev_records.first().copied().unwrap_or(0) / spf;
        let files = (0..cfg.num_devices)
            .map(|d| self.open_file(d, cur_idx, false))
            .collect::<Result<Vec<_>, _>>()
            .map_err(ArrayError::from)?;
        self.backing = Backing::Active { files };
        self.counting = counting;
        self.write_superblock().map_err(ArrayError::from)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::ftl_sink::FtlArray;
    use crate::store::InMemoryArray;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adapt-filesink-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn flush(group: u8, seg: u32, chunk_in_seg: u32) -> ChunkFlush {
        ChunkFlush {
            user_bytes: 65536,
            gc_bytes: 0,
            shadow_bytes: 0,
            pad_bytes: 0,
            group,
            seg,
            chunk_in_seg,
        }
    }

    #[test]
    fn record_roundtrip_and_crc() {
        let loc = ChunkLocation { stripe: 7, device: 2, column: 1 };
        let rec = ChunkRecord::data(&flush(3, 9, 4), &loc, 22, 0xDEAD_BEEF);
        let bytes = rec.encode();
        assert_eq!(ChunkRecord::decode(&bytes), Some(rec));
        let mut bad = bytes;
        bad[17] ^= 1;
        assert_eq!(ChunkRecord::decode(&bad), None, "bit flip must fail CRC");
        assert_eq!(ChunkRecord::decode(&bytes[..40]), None, "short read must fail");
    }

    /// Send one flush stream of `chunks` chunks to every sink: the file
    /// sink, the counting array, the store and an FTL array whose segment
    /// addresses equal the sequence (8 chunks per segment, as `flush`
    /// builds them). All four place every chunk alike, a stripe closes on
    /// its last data column, and they end with the same counters, but for
    /// the store's parity-seed copies. Returns the file sink's counters.
    fn every_sink_places_alike(name: &str, cfg: ArrayConfig, chunks: u32) -> ArrayStats {
        let dir = scratch(name);
        let k = cfg.data_columns() as u64;
        let mut mem = CountingArray::new(cfg);
        let mut file = FileArraySink::create(cfg, &dir, FileSinkOptions::default()).unwrap();
        let mut store = InMemoryArray::modelled(cfg, FaultPlan::default());
        let mut ftl = FtlArray::new(cfg, chunks.div_ceil(8), 8, 16 * 1024, 4, true);
        for i in 0..chunks {
            let f = flush((i % 3) as u8, i / 8, i % 8);
            let loc = mem.write_chunk(f);
            assert_eq!(file.write_chunk(f), loc, "file sink, chunk {i}");
            assert_eq!(store.write_chunk(f), loc, "store, chunk {i}");
            assert_eq!(ftl.write_chunk(f), loc, "FTL array, chunk {i}");
            assert_eq!(mem.stats().stripes_completed, (i as u64 + 1) / k, "chunk {i}");
        }
        assert_eq!(mem.stats(), file.stats());
        let but_copies = |s: &ArrayStats| ArrayStats { copy_bytes: 0, ..s.clone() };
        assert_eq!(but_copies(store.stats()), *mem.stats(), "store");
        assert_eq!(but_copies(ftl.stats()), *mem.stats(), "FTL array");
        let _ = std::fs::remove_dir_all(&dir);
        file.stats().clone()
    }

    #[test]
    fn locations_and_stats_match_counting_array() {
        every_sink_places_alike("parity", ArrayConfig::default(), 50);
    }

    #[test]
    fn reads_verify_against_stored_records() {
        let dir = scratch("reads");
        let cfg = ArrayConfig::default();
        let mut sink = FileArraySink::create(cfg, &dir, FileSinkOptions::default()).unwrap();
        let locs: Vec<_> = (0..9u32).map(|i| sink.write_chunk(flush(0, 0, i))).collect();
        for &loc in &locs {
            assert!(sink.read_chunk_at(loc).is_ok(), "{loc:?}");
        }
        let never = ChunkLocation { stripe: 99, device: 0, column: 0 };
        assert!(matches!(sink.read_chunk_at(never), Err(ArrayError::MissingChunk { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: a device that has written its record for the *last*
    /// stripe of a file keeps appending to that file until the whole
    /// stripe completes and the roll runs. Reading such a record used to
    /// look in the (nonexistent) next file and report a false checksum
    /// mismatch.
    #[test]
    fn reads_at_file_boundary_of_incomplete_stripe() {
        let dir = scratch("boundary");
        let cfg = ArrayConfig::default();
        let opts = FileSinkOptions { stripes_per_file: 1, ..FileSinkOptions::default() };
        let mut sink = FileArraySink::create(cfg, &dir, opts).unwrap();
        // One data chunk of stripe 0: the stripe is incomplete, so file 0
        // is still open, yet this device's record count already equals the
        // file capacity.
        let loc = sink.write_chunk(flush(0, 0, 0));
        assert!(sink.read_chunk_at(loc).is_ok(), "boundary read must hit the open file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn files_roll_and_superblock_generation_advances() {
        let dir = scratch("roll");
        let cfg = ArrayConfig::default();
        let opts = FileSinkOptions { stripes_per_file: 2, ..FileSinkOptions::default() };
        let mut sink = FileArraySink::create(cfg, &dir, opts).unwrap();
        let g0 = sink.generation();
        // 4 complete stripes = 12 data chunks = two sealed files per device.
        for i in 0..12u32 {
            sink.write_chunk(flush(0, 0, i));
        }
        assert!(sink.generation() > g0);
        assert!(dir.join("dev0").join("f000001.seg").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_scan_recovers_everything() {
        // Accounting-only flushes, then real payloads borrowed from one
        // reused caller buffer: the scan finds the same records whichever
        // path framed them, and neither path copies a payload byte.
        for payload in [false, true] {
            let dir = scratch(if payload { "scan_payload" } else { "scan" });
            let cfg = ArrayConfig::default();
            let opts = FileSinkOptions { stripes_per_file: 2, ..FileSinkOptions::default() };
            let mut sink = FileArraySink::create(cfg, &dir, opts.clone()).unwrap();
            let n = 15u32; // 5 complete stripes
            let mut buf = vec![0xA5u8; cfg.chunk_bytes as usize];
            for i in 0..n {
                if payload {
                    // Unique leading bytes so every frame CRC differs.
                    buf[..4].copy_from_slice(&i.to_le_bytes());
                    sink.write_chunk_payload(flush(0, 0, i), &buf);
                } else {
                    sink.write_chunk(flush(0, 0, i));
                }
            }
            sink.sync_all().unwrap();
            assert_eq!(sink.stats().copy_bytes, 0, "the sink CRCs the borrowed slice in place");
            drop(sink);

            let mut sink = FileArraySink::open_recovery(cfg, &dir, opts).unwrap();
            let report = sink.recover_reconcile(n as u64, &[]).unwrap();
            // Data records plus one parity record per complete stripe.
            assert_eq!(report.records_scanned, (n + n / 3) as u64);
            assert_eq!(report.records_reused, report.records_scanned);
            assert_eq!(report.records_restored, 0);
            assert_eq!(report.records_discarded, 0);
            assert_eq!(sink.counting.chunks_written(), n as u64);
            // The rebuilt sink serves reads and accepts appends.
            let loc = StripeLayout::new(cfg).locate(3);
            assert!(sink.read_chunk_at(loc).is_ok());
            sink.write_chunk(flush(0, 9, 0));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_tail_is_restored_from_wal_digests() {
        let dir = scratch("restore");
        let cfg = ArrayConfig::default();
        let mut sink = FileArraySink::create(cfg, &dir, FileSinkOptions::default()).unwrap();
        for i in 0..6u32 {
            sink.write_chunk(flush(0, 0, i));
        }
        sink.sync_all().unwrap();
        drop(sink);
        // Tear the last record of dev0's file.
        let f0 = dir.join("dev0").join("f000000.seg");
        let mut bytes = std::fs::read(&f0).unwrap();
        let cut = bytes.len() - 10;
        bytes.truncate(cut);
        std::fs::write(&f0, &bytes).unwrap();

        let mut sink = FileArraySink::open_recovery(cfg, &dir, FileSinkOptions::default()).unwrap();
        // The WAL tail still knows every flush.
        let tail: Vec<RecoveredFlush> =
            (0..6).map(|i| RecoveredFlush { chunk_seq: i, flush: flush(0, 0, i as u32) }).collect();
        let report = sink.recover_reconcile(6, &tail).unwrap();
        assert!(report.records_restored > 0, "{report:?}");
        for seq in 0..6 {
            let loc = StripeLayout::new(cfg).locate(seq);
            assert!(sink.read_chunk_at(loc).is_ok(), "chunk {seq}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_pre_checkpoint_record_is_typed_error() {
        let dir = scratch("missing");
        let cfg = ArrayConfig::default();
        let sink = FileArraySink::create(cfg, &dir, FileSinkOptions::default()).unwrap();
        drop(sink);
        let mut sink = FileArraySink::open_recovery(cfg, &dir, FileSinkOptions::default()).unwrap();
        let err = sink.recover_reconcile(4, &[]).unwrap_err();
        assert_eq!(err, ArrayError::Storage { failure: StorageFailure::MissingRecord });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn raid6_locations_and_stats_match_counting_array() {
        let stats = every_sink_places_alike("raid6", ArrayConfig::with_parity(8, 2, 65536), 60);
        assert_eq!(stats.parity_bytes(), 10 * 2 * 65536, "2 parity chunks × 10 stripes");
    }

    #[test]
    fn raid6_clean_scan_recovers_everything() {
        let dir = scratch("raid6-scan");
        let cfg = ArrayConfig::with_parity(6, 2, 65536);
        let opts = FileSinkOptions { stripes_per_file: 2, ..FileSinkOptions::default() };
        let mut sink = FileArraySink::create(cfg, &dir, opts.clone()).unwrap();
        let n = 16u32; // 4 complete 4+2 stripes
        for i in 0..n {
            sink.write_chunk(flush(0, 0, i));
        }
        sink.sync_all().unwrap();
        drop(sink);

        let mut sink = FileArraySink::open_recovery(cfg, &dir, opts).unwrap();
        let report = sink.recover_reconcile(n as u64, &[]).unwrap();
        assert_eq!(report.records_restored, 0, "{report:?}");
        assert_eq!(report.records_discarded, 0, "{report:?}");
        assert_eq!(sink.counting.chunks_written(), n as u64);
        let loc = StripeLayout::new(cfg).locate(5);
        assert!(sink.read_chunk_at(loc).is_ok());
        sink.write_chunk(flush(0, 9, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn geometry_mismatch_on_open_is_typed() {
        let dir = scratch("geom");
        let cfg = ArrayConfig::with_parity(6, 2, 65536);
        let mut sink = FileArraySink::create(cfg, &dir, FileSinkOptions::default()).unwrap();
        for i in 0..4u32 {
            sink.write_chunk(flush(0, 0, i));
        }
        sink.sync_all().unwrap();
        drop(sink);
        // Reopening a 4+2 array as 5+1 must refuse before touching records.
        let wrong = ArrayConfig::new(6, 65536);
        let err =
            FileArraySink::open_recovery(wrong, &dir, FileSinkOptions::default()).unwrap_err();
        assert!(matches!(err, FileSinkError::GeometryMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn power_loss_stops_persistence_but_not_accounting() {
        let dir = scratch("powerloss");
        let cfg = ArrayConfig::default();
        let budget = PowerBudget::limited(200); // a few records, then dark
        let opts = FileSinkOptions { budget: Some(budget.clone()), ..FileSinkOptions::default() };
        let mut sink = FileArraySink::create(cfg, &dir, opts).unwrap();
        for i in 0..30u32 {
            sink.write_chunk(flush(0, 0, i));
        }
        assert!(budget.is_tripped());
        assert!(sink.failure().is_some());
        assert_eq!(sink.counting.chunks_written(), 30, "accounting keeps running");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

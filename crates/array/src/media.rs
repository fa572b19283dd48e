//! Simulated storage media with injectable power loss.
//!
//! The durable backend ([`crate::file_sink`]) and the WAL in `adapt-lss`
//! write through this layer instead of touching `std::fs` directly. A
//! [`MediaFile`] buffers appends in memory and only makes them durable on
//! [`MediaFile::sync`]; a shared [`PowerBudget`] meters how many bytes the
//! "hardware" is allowed to persist before power is cut. When the budget
//! runs out mid-sync, the file is left with a *torn tail* — exactly the
//! partial-write state a real crash produces — and every later operation
//! fails with [`MediaError::PowerLoss`].
//!
//! The budget is deliberately byte-granular: a crash point is a single
//! integer offset into the stream of durable bytes, so a seeded sweep can
//! place the cut mid-WAL-record, mid-segment-write, or between a temp-file
//! write and its rename (see [`atomic_replace`]).

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

/// What class of durable write is consuming budget. Crash sweeps use the
/// tag recorded at the trip point to classify each seeded crash (torn WAL
/// record vs torn segment write vs interrupted rename).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WriteTag {
    /// A WAL record append.
    WalRecord,
    /// A segment-file chunk record.
    SinkRecord,
    /// The rename step of an atomic replace.
    Rename,
    /// Superblock / checkpoint-base temp-file contents.
    Superblock,
    /// A checkpoint delta frame appended to the delta log, or (as a
    /// one-byte unit, like [`WriteTag::Rename`]) the truncation that
    /// resets that log after a new base was installed.
    CheckpointDelta,
}

impl WriteTag {
    fn from_u8(v: u8) -> WriteTag {
        match v {
            0 => WriteTag::WalRecord,
            1 => WriteTag::SinkRecord,
            2 => WriteTag::Rename,
            3 => WriteTag::Superblock,
            _ => WriteTag::CheckpointDelta,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            WriteTag::WalRecord => 0,
            WriteTag::SinkRecord => 1,
            WriteTag::Rename => 2,
            WriteTag::Superblock => 3,
            WriteTag::CheckpointDelta => 4,
        }
    }
}

/// A metered allowance of durable bytes, shared (via `Arc`) between every
/// writer of one simulated machine. `consume` grants bytes until the
/// budget runs dry; the first short grant trips the budget permanently,
/// modeling the instant the power fails.
#[derive(Debug)]
pub struct PowerBudget {
    remaining: AtomicI64,
    consumed: AtomicU64,
    tripped: AtomicBool,
    trip_tag: AtomicU8,
    /// Present only on metering runs: the sequence of (tag, bytes) grants,
    /// used to aim crash points at specific write classes.
    journal: Option<Mutex<Vec<(WriteTag, u64)>>>,
}

impl PowerBudget {
    /// A budget that never trips (normal operation).
    pub fn unlimited() -> Arc<Self> {
        Arc::new(Self {
            remaining: AtomicI64::new(i64::MAX),
            consumed: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            trip_tag: AtomicU8::new(0),
            journal: None,
        })
    }

    /// An unlimited budget that records every grant, for the golden run of
    /// a crash sweep.
    pub fn metered() -> Arc<Self> {
        Arc::new(Self {
            remaining: AtomicI64::new(i64::MAX),
            consumed: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            trip_tag: AtomicU8::new(0),
            journal: Some(Mutex::new(Vec::new())),
        })
    }

    /// A budget that cuts power after exactly `bytes` durable bytes.
    pub fn limited(bytes: u64) -> Arc<Self> {
        Arc::new(Self {
            remaining: AtomicI64::new(bytes.min(i64::MAX as u64) as i64),
            consumed: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            trip_tag: AtomicU8::new(0),
            journal: None,
        })
    }

    /// Request `want` bytes of durable writing; returns how many are
    /// granted. A short grant (including zero) trips the budget: all
    /// subsequent requests are denied.
    pub fn consume(&self, tag: WriteTag, want: u64) -> u64 {
        if self.tripped.load(Ordering::Relaxed) {
            return 0;
        }
        let left = self.remaining.load(Ordering::Relaxed).max(0) as u64;
        let granted = want.min(left);
        self.remaining.fetch_sub(granted as i64, Ordering::Relaxed);
        self.consumed.fetch_add(granted, Ordering::Relaxed);
        if granted < want {
            self.tripped.store(true, Ordering::Relaxed);
            self.trip_tag.store(tag.as_u8(), Ordering::Relaxed);
        } else if let Some(j) = &self.journal {
            j.lock().unwrap().push((tag, granted));
        }
        granted
    }

    /// Has the power been cut?
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// The write class that was in flight when power failed.
    pub fn trip_tag(&self) -> Option<WriteTag> {
        if self.is_tripped() {
            Some(WriteTag::from_u8(self.trip_tag.load(Ordering::Relaxed)))
        } else {
            None
        }
    }

    /// Total bytes made durable so far.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }

    /// The grant journal of a metered run (empty otherwise).
    pub fn journal(&self) -> Vec<(WriteTag, u64)> {
        self.journal.as_ref().map(|j| j.lock().unwrap().clone()).unwrap_or_default()
    }
}

/// Error from the media layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MediaError {
    /// The power budget ran out: the write stream ends here, possibly
    /// mid-record. The on-disk state keeps whatever prefix was granted.
    PowerLoss,
    /// A real filesystem error.
    Io(String),
}

impl std::fmt::Display for MediaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediaError::PowerLoss => write!(f, "simulated power loss: write budget exhausted"),
            MediaError::Io(detail) => write!(f, "media I/O error: {detail}"),
        }
    }
}

impl std::error::Error for MediaError {}

impl From<std::io::Error> for MediaError {
    fn from(e: std::io::Error) -> Self {
        MediaError::Io(e.to_string())
    }
}

/// An append-only file whose writes become durable only at [`sync`]
/// (`MediaFile::sync`) — the volatile write cache of a disk. Appends
/// accumulate in `pending`; `sync` pushes them to the OS file, charging
/// the power budget byte-for-byte, so a crash mid-sync leaves a torn tail.
#[derive(Debug)]
pub struct MediaFile {
    path: PathBuf,
    file: File,
    pending: Vec<u8>,
    durable_len: u64,
    /// Whether the OS file cursor sits at `durable_len`, so [`sync`]
    /// (`MediaFile::sync`) can append without a `seek`. Cleared by
    /// anything that moves the cursor elsewhere or may have left it at an
    /// unknown offset (`read_at`, a failed write).
    at_tail: bool,
    budget: Option<Arc<PowerBudget>>,
    tag: WriteTag,
    fsync: bool,
}

impl MediaFile {
    /// Create (truncating) a fresh file.
    pub fn create(
        path: impl Into<PathBuf>,
        budget: Option<Arc<PowerBudget>>,
        tag: WriteTag,
        fsync: bool,
    ) -> Result<Self, MediaError> {
        let path = path.into();
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&path)?;
        let pending = Vec::new();
        Ok(Self { path, file, pending, durable_len: 0, at_tail: true, budget, tag, fsync })
    }

    /// Open an existing file for continued appends (recovery handoff).
    /// Everything already in the file counts as durable.
    pub fn append_to(
        path: impl Into<PathBuf>,
        budget: Option<Arc<PowerBudget>>,
        tag: WriteTag,
        fsync: bool,
    ) -> Result<Self, MediaError> {
        let path = path.into();
        let mut file =
            OpenOptions::new().write(true).read(true).create(true).truncate(false).open(&path)?;
        let durable_len = file.seek(SeekFrom::End(0))?;
        let pending = Vec::new();
        Ok(Self { path, file, pending, durable_len, at_tail: true, budget, tag, fsync })
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Buffer bytes; nothing is durable until [`MediaFile::sync`].
    pub fn write(&mut self, buf: &[u8]) {
        self.pending.extend_from_slice(buf);
    }

    /// Bytes buffered but not yet durable.
    pub fn pending_bytes(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Bytes durably in the file.
    pub fn durable_len(&self) -> u64 {
        self.durable_len
    }

    /// Logical length: durable plus buffered.
    pub fn len(&self) -> u64 {
        self.durable_len + self.pending.len() as u64
    }

    /// Whether nothing has been written at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush buffered bytes to the OS file, honoring the power budget. On
    /// a short grant the granted prefix is written (torn tail), the rest
    /// of the buffer is discarded — it lived only in the "write cache" —
    /// and `PowerLoss` is returned.
    pub fn sync(&mut self) -> Result<(), MediaError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let want = self.pending.len() as u64;
        let granted = match &self.budget {
            Some(b) => b.consume(self.tag, want),
            None => want,
        };
        let cut = granted as usize;
        if !self.at_tail {
            self.file.seek(SeekFrom::Start(self.durable_len))?;
        }
        self.at_tail = false;
        self.file.write_all(&self.pending[..cut])?;
        self.at_tail = true;
        self.durable_len += granted;
        self.pending.clear();
        if granted < want {
            return Err(MediaError::PowerLoss);
        }
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Truncate to empty, dropping buffered bytes too. Charged to the
    /// power budget as one unit of this file's tag (the way a rename is
    /// one unit), so a crash sweep can land exactly *before* the
    /// truncation: on a zero grant the file is left untouched and
    /// `PowerLoss` is returned.
    pub fn reset(&mut self) -> Result<(), MediaError> {
        if self.budget.as_ref().is_some_and(|b| b.consume(self.tag, 1) == 0) {
            return Err(MediaError::PowerLoss);
        }
        self.pending.clear();
        self.at_tail = false;
        self.file.set_len(0)?;
        self.durable_len = 0;
        Ok(())
    }

    /// Read back `buf.len()` bytes at `offset`, spanning the durable file
    /// and the volatile pending buffer (the writer sees its own cache).
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<(), MediaError> {
        let end = offset + buf.len() as u64;
        if end > self.len() {
            return Err(MediaError::Io(format!(
                "read past end: {}..{} of {} in {}",
                offset,
                end,
                self.len(),
                self.path.display()
            )));
        }
        let durable_part = self.durable_len.saturating_sub(offset).min(buf.len() as u64) as usize;
        if durable_part > 0 {
            self.at_tail = false;
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.read_exact(&mut buf[..durable_part])?;
        }
        if durable_part < buf.len() {
            let from = (offset + durable_part as u64 - self.durable_len) as usize;
            let n = buf.len() - durable_part;
            buf[durable_part..].copy_from_slice(&self.pending[from..from + n]);
        }
        Ok(())
    }
}

/// Atomically install `bytes` at `final_path` via temp-write-and-rename.
/// The temp contents are charged to `tag`; the rename itself is charged as
/// one [`WriteTag::Rename`] unit, so a crash sweep can land exactly
/// *between* the temp write and the rename — the classic mid-rename
/// window where a valid temp file exists but the target still holds the
/// previous generation.
pub fn atomic_replace(
    final_path: &Path,
    bytes: &[u8],
    budget: Option<&Arc<PowerBudget>>,
    tag: WriteTag,
    fsync: bool,
) -> Result<(), MediaError> {
    let tmp = tmp_path(final_path);
    let want = bytes.len() as u64;
    let granted = match budget {
        Some(b) => b.consume(tag, want),
        None => want,
    };
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes[..granted as usize])?;
        if fsync {
            f.sync_data()?;
        }
    }
    if granted < want {
        // Torn temp file left behind; target untouched.
        return Err(MediaError::PowerLoss);
    }
    let rename_granted = match budget {
        Some(b) => b.consume(WriteTag::Rename, 1),
        None => 1,
    };
    if rename_granted == 0 {
        // Complete temp file, but power died before the rename: the
        // mid-rename crash state.
        return Err(MediaError::PowerLoss);
    }
    std::fs::rename(&tmp, final_path)?;
    if fsync {
        // Durability of the rename requires syncing the directory.
        if let Some(dir) = final_path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// The temp-file path `atomic_replace` uses for `final_path`.
pub fn tmp_path(final_path: &Path) -> PathBuf {
    let mut name = final_path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    final_path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("adapt-media-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn pending_is_volatile_until_sync() {
        let dir = scratch("volatile");
        let path = dir.join("a.log");
        let mut f = MediaFile::create(&path, None, WriteTag::WalRecord, false).unwrap();
        f.write(b"hello");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        f.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_trip_leaves_torn_tail() {
        let dir = scratch("torn");
        let path = dir.join("a.log");
        let budget = PowerBudget::limited(3);
        let mut f =
            MediaFile::create(&path, Some(budget.clone()), WriteTag::SinkRecord, false).unwrap();
        f.write(b"abcdef");
        assert_eq!(f.sync(), Err(MediaError::PowerLoss));
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        assert!(budget.is_tripped());
        assert_eq!(budget.trip_tag(), Some(WriteTag::SinkRecord));
        // Once tripped, nothing more is granted.
        f.write(b"x");
        assert_eq!(f.sync(), Err(MediaError::PowerLoss));
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_at_spans_durable_and_pending() {
        let dir = scratch("readback");
        let mut f = MediaFile::create(dir.join("a.log"), None, WriteTag::WalRecord, false).unwrap();
        f.write(b"abc");
        f.sync().unwrap();
        f.write(b"def");
        let mut buf = [0u8; 6];
        f.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
        let mut buf = [0u8; 2];
        f.read_at(2, &mut buf).unwrap();
        assert_eq!(&buf, b"cd");
        assert!(f.read_at(5, &mut [0u8; 2]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_land_at_the_tail_after_a_read_moved_the_cursor() {
        let dir = scratch("cursor");
        let path = dir.join("a.log");
        let mut f = MediaFile::create(&path, None, WriteTag::WalRecord, false).unwrap();
        f.write(b"abc");
        f.sync().unwrap();
        f.write(b"def");
        f.sync().unwrap(); // no read in between: appended without a seek
        let mut buf = [0u8; 2];
        f.read_at(1, &mut buf).unwrap(); // cursor now mid-file
        f.write(b"ghi");
        f.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"abcdefghi");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_truncates_and_is_one_budget_unit() {
        let dir = scratch("reset");
        let path = dir.join("d.log");
        let budget = PowerBudget::limited(7);
        let mut f =
            MediaFile::create(&path, Some(budget.clone()), WriteTag::CheckpointDelta, false)
                .unwrap();
        f.write(b"abc");
        f.sync().unwrap();
        f.write(b"volatile");
        f.reset().unwrap();
        assert_eq!((f.len(), budget.consumed()), (0, 4));
        f.write(b"xyz");
        f.sync().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"xyz");
        // Budget exhausted: the truncation is denied and the file survives.
        assert_eq!(f.reset(), Err(MediaError::PowerLoss));
        assert_eq!(std::fs::read(&path).unwrap(), b"xyz");
        assert_eq!(budget.trip_tag(), Some(WriteTag::CheckpointDelta));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_replace_swaps_generations() {
        let dir = scratch("replace");
        let target = dir.join("super.bin");
        atomic_replace(&target, b"gen1", None, WriteTag::Superblock, false).unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"gen1");
        atomic_replace(&target, b"gen2", None, WriteTag::Superblock, false).unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"gen2");
        assert!(!tmp_path(&target).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_between_temp_and_rename_keeps_old_generation() {
        let dir = scratch("midrename");
        let target = dir.join("super.bin");
        atomic_replace(&target, b"gen1", None, WriteTag::Superblock, false).unwrap();
        // Enough budget for the temp contents but not the rename.
        let budget = PowerBudget::limited(4);
        assert_eq!(
            atomic_replace(&target, b"gen2", Some(&budget), WriteTag::Superblock, false),
            Err(MediaError::PowerLoss)
        );
        assert_eq!(std::fs::read(&target).unwrap(), b"gen1", "target must keep old generation");
        assert_eq!(std::fs::read(tmp_path(&target)).unwrap(), b"gen2", "temp file left behind");
        assert_eq!(budget.trip_tag(), Some(WriteTag::Rename));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metered_budget_journals_grants() {
        let budget = PowerBudget::metered();
        budget.consume(WriteTag::WalRecord, 10);
        budget.consume(WriteTag::Rename, 1);
        assert_eq!(budget.consumed(), 11);
        assert_eq!(budget.journal(), vec![(WriteTag::WalRecord, 10), (WriteTag::Rename, 1)]);
        assert!(!budget.is_tripped());
    }
}

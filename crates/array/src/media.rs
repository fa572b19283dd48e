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
//!
//! # Two backings
//!
//! A file made durable in small, frequent syncs — the WAL, ≈ 60 bytes a
//! group commit — opens with [`MediaFile::create_mapped`] (unix only):
//! `sync` copies the granted bytes into a `MAP_SHARED` mapping of the
//! file, the same page cache `write(2)` reaches, without entering the
//! kernel. The mapping starts at 64 KiB and doubles when a sync would pass
//! its end; the new blocks are allocated first, by writing zeros through
//! the file descriptor, so a full disk fails the growth with an error
//! instead of a `SIGBUS` on the copy. While such a file is open it holds
//! its durable prefix and then zeros; [`MediaFile::close`], `Drop` and
//! [`MediaFile::reset`] unmap it before they truncate it, so a closed
//! file holds exactly its durable bytes, as a `write(2)` file does.
//! Files written in whole chunks (segment files) or rarely (the checkpoint
//! delta log) keep `write(2)`: a mapping pays a first-touch page fault per
//! 4 KiB page, sixteen per 64 KiB chunk, against one system call.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

#[cfg(unix)]
use mapped::Mapping;

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

/// An append-only file whose writes become durable only at
/// [`sync`](MediaFile::sync) — the volatile write cache of a disk.
/// Appends accumulate in `pending`; `sync` pushes them to the OS file
/// (by `write(2)`, or into a shared mapping of it for a file made with
/// [`MediaFile::create_mapped`]), charging the power budget
/// byte-for-byte, so a crash mid-sync leaves a torn tail.
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
    /// Where a mapped file's syncs land; `None` for a `write(2)` file.
    #[cfg(unix)]
    map: Option<Mapping>,
    data_syncs: u64,
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
        Ok(Self::new(path, file, 0, budget, tag, fsync))
    }

    /// Create (truncating) a fresh file whose syncs copy into a shared
    /// mapping of it instead of calling `write(2)` (see the module docs).
    /// Where there is no `mmap` (non-unix targets) this is
    /// [`MediaFile::create`].
    pub fn create_mapped(
        path: impl Into<PathBuf>,
        budget: Option<Arc<PowerBudget>>,
        tag: WriteTag,
        fsync: bool,
    ) -> Result<Self, MediaError> {
        #[allow(unused_mut)]
        let mut f = Self::create(path, budget, tag, fsync)?;
        #[cfg(unix)]
        {
            f.map = Some(Mapping::empty());
        }
        Ok(f)
    }

    fn new(
        path: PathBuf,
        file: File,
        durable_len: u64,
        budget: Option<Arc<PowerBudget>>,
        tag: WriteTag,
        fsync: bool,
    ) -> Self {
        Self {
            path,
            file,
            pending: Vec::new(),
            durable_len,
            at_tail: true,
            budget,
            tag,
            fsync,
            #[cfg(unix)]
            map: None,
            data_syncs: 0,
        }
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
        Ok(Self::new(path, file, durable_len, budget, tag, fsync))
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

    /// `fdatasync` calls made by [`MediaFile::sync`] (only when the file
    /// was opened with `fsync`).
    pub fn data_syncs(&self) -> u64 {
        self.data_syncs
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
        self.write_durable(granted as usize)?;
        self.durable_len += granted;
        self.pending.clear();
        if granted < want {
            return Err(MediaError::PowerLoss);
        }
        if self.fsync {
            // Also writes back the pages dirtied through a mapping: they
            // are the file's own page cache.
            self.file.sync_data()?;
            self.data_syncs += 1;
        }
        Ok(())
    }

    /// Put the first `cut` pending bytes in the file at `durable_len`.
    fn write_durable(&mut self, cut: usize) -> std::io::Result<()> {
        #[cfg(unix)]
        if let Some(map) = &mut self.map {
            return map.write_at(&self.file, self.durable_len, &self.pending[..cut]);
        }
        if !self.at_tail {
            self.file.seek(SeekFrom::Start(self.durable_len))?;
        }
        self.at_tail = false;
        self.file.write_all(&self.pending[..cut])?;
        self.at_tail = true;
        Ok(())
    }

    /// Close the file, cutting it to its durable bytes: a mapped file is
    /// unmapped first, then truncated past its durable prefix; a
    /// `write(2)` file already ends there. Dropping a `MediaFile` does the
    /// same but cannot report a failure.
    pub fn close(mut self) -> Result<(), MediaError> {
        self.unmap_and_trim()?;
        Ok(())
    }

    fn unmap_and_trim(&mut self) -> std::io::Result<()> {
        #[cfg(unix)]
        if let Some(map) = self.map.take() {
            // Unmapped before the truncation, so no access can land past
            // the end of the file.
            drop(map);
            self.file.set_len(self.durable_len)?;
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
        #[cfg(unix)]
        if let Some(map) = &mut self.map {
            // Unmapped before the truncation; the next sync maps afresh.
            *map = Mapping::empty();
        }
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

impl Drop for MediaFile {
    fn drop(&mut self) {
        let _ = self.unmap_and_trim();
    }
}

/// The shared mapping behind [`MediaFile::create_mapped`].
#[cfg(unix)]
mod mapped {
    use std::ffi::{c_int, c_long, c_void};
    use std::fs::File;
    use std::io;
    use std::os::unix::fs::FileExt;
    use std::os::unix::io::AsRawFd;

    // The POSIX calls, from the C library std already links. `off_t` is
    // a C `long` on the LP64 and ILP32 unix targets Rust supports.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_SHARED: c_int = 1;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    /// The first mapping's length; each growth doubles it.
    pub(super) const FIRST_MAP_BYTES: usize = 64 << 10;

    /// A read-write `MAP_SHARED` mapping of a file's first `len` bytes, or
    /// nothing yet (`len` 0). The file is at least `len` bytes long, with
    /// its blocks allocated, for as long as the mapping lives: whoever
    /// truncates it drops the mapping first.
    #[derive(Debug)]
    pub(super) struct Mapping {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is owned by this value alone (it hands out no
    // pointer or reference into it) and is written only through
    // `&mut self`, so moving it to another thread shares nothing.
    unsafe impl Send for Mapping {}

    impl Mapping {
        /// Nothing mapped; the first write maps.
        pub(super) fn empty() -> Self {
            Self { ptr: std::ptr::null_mut(), len: 0 }
        }

        /// Copy `bytes` to offset `at` of `file`, growing the mapping
        /// first when they would pass its end. `file` must be the file
        /// every earlier write went to.
        pub(super) fn write_at(&mut self, file: &File, at: u64, bytes: &[u8]) -> io::Result<()> {
            let at = usize::try_from(at).map_err(|_| too_long())?;
            let end = at.checked_add(bytes.len()).ok_or_else(too_long)?;
            if end > self.len {
                self.grow(file, end)?;
            }
            // SAFETY: `at + bytes.len() ≤ len` (checked or grown just
            // above), `ptr..ptr + len` is mapped read-write over file
            // bytes that exist and are allocated (see `grow`), and `bytes`
            // is ordinary memory, not part of the mapping.
            unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), self.ptr.add(at), bytes.len()) };
            Ok(())
        }

        /// Double the mapping (from `FIRST_MAP_BYTES`) until it covers
        /// `need` bytes. The file is extended to the new length with
        /// zeros before it is mapped, so its blocks exist: a full disk
        /// fails here, with an error, not later with a `SIGBUS`. Bytes
        /// the file already holds are never overwritten.
        fn grow(&mut self, file: &File, need: usize) -> io::Result<()> {
            let mut len = self.len.max(FIRST_MAP_BYTES);
            while len < need {
                len = len.checked_mul(2).ok_or_else(too_long)?;
            }
            let file_len = usize::try_from(file.metadata()?.len()).map_err(|_| too_long())?;
            if file_len < len {
                file.write_all_at(&vec![0; len - file_len], file_len as u64)?;
            }
            let (prot, fd) = (PROT_READ | PROT_WRITE, file.as_raw_fd());
            // SAFETY: a fresh mapping at an address the kernel picks, of
            // `len` bytes that the file now holds; nothing aliases it.
            let ptr = unsafe { mmap(std::ptr::null_mut(), len, prot, MAP_SHARED, fd, 0) };
            if ptr == MAP_FAILED {
                return Err(io::Error::last_os_error());
            }
            // Dropping the old mapping unmaps it.
            *self = Self { ptr: ptr.cast(), len };
            Ok(())
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: `ptr` and `len` are what `mmap` returned, and no
                // reference into the mapping outlives this value.
                unsafe { munmap(self.ptr.cast(), self.len) };
            }
        }
    }

    fn too_long() -> io::Error {
        io::Error::new(io::ErrorKind::InvalidInput, "mapped file past the address space")
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
    fn mapped_file_holds_its_prefix_then_zeros_until_closed() {
        let dir = scratch("mapped");
        let path = dir.join("a.log");
        let mut f = MediaFile::create_mapped(&path, None, WriteTag::WalRecord, false).unwrap();
        f.write(b"hello");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0, "nothing mapped before a sync");
        f.sync().unwrap();
        f.write(b" world");
        f.sync().unwrap();
        let live = std::fs::read(&path).unwrap();
        assert_eq!(live.len(), mapped::FIRST_MAP_BYTES);
        assert_eq!(&live[..11], b"hello world");
        assert!(live[11..].iter().all(|&b| b == 0));
        // The writer reads its own bytes back through the descriptor.
        let mut buf = [0u8; 5];
        f.read_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        f.close().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello world");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_file_grows_by_doubling_and_drop_trims_it() {
        let dir = scratch("mapped-grow");
        let path = dir.join("a.log");
        let mut f = MediaFile::create_mapped(&path, None, WriteTag::WalRecord, false).unwrap();
        let stream: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8 + 1).collect();
        for part in stream.chunks(4099) {
            f.write(part);
            f.sync().unwrap();
        }
        // 64 KiB doubled three times is the first length that holds it.
        let live = std::fs::read(&path).unwrap();
        assert_eq!(live.len(), mapped::FIRST_MAP_BYTES << 3);
        assert_eq!(&live[..stream.len()], &stream[..]);
        assert!(live[stream.len()..].iter().all(|&b| b == 0));
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), stream);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_torn_sync_keeps_exactly_the_granted_prefix() {
        let dir = scratch("mapped-torn");
        let path = dir.join("a.log");
        let budget = PowerBudget::limited(8);
        let mut f =
            MediaFile::create_mapped(&path, Some(budget.clone()), WriteTag::WalRecord, false)
                .unwrap();
        f.write(b"abcdef");
        f.sync().unwrap();
        f.write(b"ghijkl");
        assert_eq!(f.sync(), Err(MediaError::PowerLoss));
        assert_eq!(f.durable_len(), 8);
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"abcdefgh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_reset_unmaps_before_it_truncates() {
        let dir = scratch("mapped-reset");
        let path = dir.join("a.log");
        let mut f = MediaFile::create_mapped(&path, None, WriteTag::WalRecord, false).unwrap();
        f.write(b"abc");
        f.sync().unwrap();
        f.reset().unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        // The next sync maps the emptied file afresh.
        f.write(b"xyz");
        f.sync().unwrap();
        f.close().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"xyz");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_sync_still_calls_sync_data() {
        let dir = scratch("mapped-fsync");
        for fsync in [false, true] {
            let path = dir.join(format!("{fsync}.log"));
            let mut f = MediaFile::create_mapped(&path, None, WriteTag::WalRecord, fsync).unwrap();
            for _ in 0..3 {
                f.write(b"abc");
                f.sync().unwrap();
            }
            assert_eq!(f.data_syncs(), if fsync { 3 } else { 0 });
        }
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

//! Checkpoints that cost what changed: who writes what, and loading it
//! back.
//!
//! [`CheckpointStore`] owns the two checkpoint files of a durable engine
//! and the *dirty sets* — which LBAs, segments and slots the WAL records
//! since the previous checkpoint touched (every durable mutation is
//! announced by a WAL record, so `Lss::wal_append` is the one place they
//! are noted). A checkpoint is then either one delta frame holding just
//! those, or — by the fold rule — a fresh base. [`load`] is the inverse:
//! base, then deltas, then validate everything and derive the rest. The
//! byte formats, the fold rule and the crash argument are in
//! [`crate::recovery`].

use crate::gc_buckets::SegmentBuckets;
use crate::group::Group;
use crate::index::{BlockEntry, BlockIndex, DenseMap};
use crate::recovery::{
    encode_base, encode_delta, BaseImage, DeltaImage, Dirty, GeometrySnap, GroupRec, Header,
    RecoveryError, SegmentRec, View, CHECKPOINT_FILE, CLEAN, DELTA_FILE, MAX_LBAS,
};
use crate::segment::{Segment, SegmentState};
use crate::types::{Lba, SegmentId, Slot};
use crate::wal::{split_frame, DurabilityConfig, WalError};
use adapt_array::{atomic_replace, MediaFile, PowerBudget, WriteTag};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What one checkpoint wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Written {
    /// Bytes: the whole base file, or the one delta frame.
    pub bytes: u64,
    /// Whether it was a base.
    pub base: bool,
}

/// The checkpoint files of one durable engine plus the dirty sets that
/// make a delta possible.
pub(crate) struct CheckpointStore {
    dir: PathBuf,
    budget: Option<Arc<PowerBudget>>,
    fsync: bool,
    /// The delta log, appended to through the power-metered media layer.
    delta: MediaFile,
    /// Generation of the base on disk (0: none yet).
    generation: u64,
    /// Frames appended to this generation's log.
    deltas: u64,
    /// Size of the base on disk. `None` forces the next checkpoint to be
    /// a base: no base yet, a recovered engine (whatever follows the last
    /// frame it applied is unknown), or a checkpoint write that failed
    /// midway.
    base_bytes: Option<u64>,
    /// LBAs noted since the previous checkpoint, each once (`lba_marks`
    /// is the membership bitmap).
    dirty_lbas: Vec<Lba>,
    lba_marks: Vec<u64>,
    /// Per segment id, the first slot a delta must carry for it; [`CLEAN`]
    /// for a segment not noted since the previous checkpoint.
    seg_from: Vec<u32>,
    /// Slots tombstoned in place since the previous checkpoint.
    dirty_slots: Vec<(SegmentId, u32)>,
    /// Encode scratch, reused across checkpoints.
    buf: Vec<u8>,
}

impl CheckpointStore {
    /// Fresh files for a new engine: removes a previous incarnation's
    /// base and truncates its delta log. No base is written until the
    /// first checkpoint.
    pub(crate) fn create(dir: &Path, cfg: &DurabilityConfig) -> Result<Self, WalError> {
        match std::fs::remove_file(dir.join(CHECKPOINT_FILE)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let delta = MediaFile::create(
            dir.join(DELTA_FILE),
            cfg.budget.clone(),
            WriteTag::CheckpointDelta,
            cfg.fsync_data,
        )?;
        Ok(Self::with_delta(dir, cfg, delta, 0))
    }

    /// Continue after recovery from the base of `generation`. The files
    /// stay as they are — they remain the recovery source until the first
    /// checkpoint, a base, replaces them.
    pub(crate) fn resume(
        dir: &Path,
        cfg: &DurabilityConfig,
        generation: u64,
    ) -> Result<Self, WalError> {
        let delta = MediaFile::append_to(
            dir.join(DELTA_FILE),
            cfg.budget.clone(),
            WriteTag::CheckpointDelta,
            cfg.fsync_data,
        )?;
        Ok(Self::with_delta(dir, cfg, delta, generation))
    }

    fn with_delta(dir: &Path, cfg: &DurabilityConfig, delta: MediaFile, generation: u64) -> Self {
        Self {
            dir: dir.to_path_buf(),
            budget: cfg.budget.clone(),
            fsync: cfg.fsync_data,
            delta,
            generation,
            deltas: 0,
            base_bytes: None,
            dirty_lbas: Vec::new(),
            lba_marks: Vec::new(),
            seg_from: Vec::new(),
            dirty_slots: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// `lba`'s index entry or version changed.
    #[inline]
    pub(crate) fn note_lba(&mut self, lba: Lba) {
        let (word, bit) = ((lba / 64) as usize, 1u64 << (lba % 64));
        if word >= self.lba_marks.len() {
            self.lba_marks.resize(word + 1, 0);
        }
        if self.lba_marks[word] & bit == 0 {
            self.lba_marks[word] |= bit;
            self.dirty_lbas.push(lba);
        }
    }

    /// `seg` was appended to from slot `from` on, or (`from` 0) opened or
    /// reclaimed.
    pub(crate) fn note_segment(&mut self, seg: SegmentId, from: u32) {
        let id = seg as usize;
        if id >= self.seg_from.len() {
            self.seg_from.resize(id + 1, CLEAN);
        }
        self.seg_from[id] = self.seg_from[id].min(from);
    }

    /// Slot `(seg, off)` was overwritten in place (a shadow tombstone).
    pub(crate) fn note_slot(&mut self, seg: SegmentId, off: u32) {
        self.dirty_slots.push((seg, off));
    }

    /// Write one checkpoint of `view` covering the WAL below
    /// `wal_start_idx`: a delta frame, or a base when there is none to
    /// extend or the delta log has outgrown it (the fold rule). Durable
    /// (synced) on return; the caller prunes the WAL after.
    pub(crate) fn write(
        &mut self,
        view: &View<'_>,
        wal_start_idx: u64,
    ) -> Result<Written, WalError> {
        let base = self.base_bytes.is_none_or(|base| self.delta.durable_len() >= base);
        let result = if base {
            self.write_base(view, wal_start_idx)
        } else {
            self.append_delta(view, wal_start_idx)
        };
        match result {
            Ok(bytes) => {
                self.dirty_lbas.clear();
                self.lba_marks.fill(0);
                self.seg_from.fill(CLEAN);
                self.dirty_slots.clear();
                Ok(Written { bytes, base })
            }
            Err(e) => {
                self.base_bytes = None;
                Err(e)
            }
        }
    }

    fn write_base(&mut self, view: &View<'_>, wal_start_idx: u64) -> Result<u64, WalError> {
        encode_base(&mut self.buf, self.generation + 1, wal_start_idx, view);
        let path = self.dir.join(CHECKPOINT_FILE);
        atomic_replace(&path, &self.buf, self.budget.as_ref(), WriteTag::Superblock, self.fsync)?;
        self.generation += 1;
        self.deltas = 0;
        // A cut right here leaves the previous generation's frames in the
        // log; recovery skips them.
        self.delta.reset()?;
        let bytes = self.buf.len() as u64;
        self.base_bytes = Some(bytes);
        Ok(bytes)
    }

    fn append_delta(&mut self, view: &View<'_>, wal_start_idx: u64) -> Result<u64, WalError> {
        let header = Header {
            generation: self.generation,
            seq: self.deltas + 1,
            wal_start_idx,
            clocks: view.clocks,
        };
        let dirty =
            Dirty { seg_from: &self.seg_from, slots: &self.dirty_slots, lbas: &self.dirty_lbas };
        if !encode_delta(&mut self.buf, &header, view, &dirty) {
            return Err(WalError::Io("checkpoint delta exceeds the 4 GiB frame limit".into()));
        }
        self.delta.write(&self.buf);
        self.delta.sync()?;
        self.deltas += 1;
        Ok(self.buf.len() as u64)
    }
}

/// The engine state [`load`] installs a checkpoint into.
pub(crate) struct ViewMut<'a> {
    pub geometry: GeometrySnap,
    pub segments: &'a mut [Segment],
    pub free: &'a mut Vec<SegmentId>,
    pub groups: &'a mut [Group],
    pub index: &'a mut BlockIndex,
    pub versions: &'a mut DenseMap<u64>,
    pub buckets: &'a mut SegmentBuckets,
}

/// What [`load`] found.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Loaded {
    /// Header of the last frame applied (the base's when no delta was).
    pub header: Header,
    /// The scan stopped at a torn or CRC-failing frame.
    pub torn_delta: bool,
    /// The scan stopped at a frame of another generation or sequence.
    pub stale_deltas: bool,
}

fn bad(detail: String) -> RecoveryError {
    RecoveryError::BadCheckpoint { detail }
}

fn read_if_present(path: &Path) -> Result<Option<Vec<u8>>, RecoveryError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(RecoveryError::Wal(WalError::Io(e.to_string()))),
    }
}

/// Load the checkpoint in `dir` into a freshly built engine's state:
/// the base, then every delta frame that extends it.
///
/// `Ok(None)` when there is no base (cold start: replay from WAL index 0
/// onto an empty engine). A present-but-damaged base, a CRC-valid frame
/// that does not parse, or content inconsistent with itself or the engine
/// is an error — never a panic; a torn frame just ends the scan.
pub(crate) fn load(dir: &Path, st: &mut ViewMut<'_>) -> Result<Option<Loaded>, RecoveryError> {
    let Some(bytes) = read_if_present(&dir.join(CHECKPOINT_FILE))? else {
        return Ok(None);
    };
    let base = BaseImage::parse(&bytes).map_err(bad)?;
    if base.geometry != st.geometry {
        return Err(RecoveryError::GeometryMismatch {
            detail: format!("checkpoint {:?} vs engine {:?}", base.geometry, st.geometry),
        });
    }
    st.install_base(&base)?;
    let mut loaded = Loaded { header: base.header, torn_delta: false, stale_deltas: false };
    let log = read_if_present(&dir.join(DELTA_FILE))?.unwrap_or_default();
    let mut off = 0;
    while off < log.len() {
        let Some((payload, next)) = split_frame(&log, off, u32::MAX) else {
            loaded.torn_delta = true;
            break;
        };
        let delta = DeltaImage::parse(payload, st.geometry.chunk_blocks)
            .ok_or_else(|| bad(format!("delta frame at byte {off} malformed")))?;
        let expected = (loaded.header.generation, loaded.header.seq + 1);
        if (delta.header.generation, delta.header.seq) != expected {
            loaded.stale_deltas = true;
            break;
        }
        st.install_delta(&delta)?;
        loaded.header = delta.header;
        off = next;
    }
    st.validate_and_derive()?;
    Ok(Some(loaded))
}

fn word(bytes: &[u8; 8]) -> u64 {
    u64::from_le_bytes(*bytes)
}

impl ViewMut<'_> {
    fn install_base(&mut self, base: &BaseImage<'_>) -> Result<(), RecoveryError> {
        let mut present = vec![false; self.segments.len()];
        for rec in &base.segments {
            match present.get_mut(rec.id as usize) {
                Some(seen) if !*seen => *seen = true,
                Some(_) => return Err(bad(format!("segment {} appears twice", rec.id))),
                None => return Err(bad(format!("segment id {} out of range", rec.id))),
            }
            if rec.state == SegmentState::Free || rec.from != 0 {
                return Err(bad(format!("segment {} is not a whole live segment", rec.id)));
            }
            self.install_segment(rec)?;
        }
        self.install_groups(&base.groups)?;
        if base.index.len() as u64 > MAX_LBAS || base.versions.len() as u64 > MAX_LBAS {
            return Err(bad("index or version table over the LBA cap".into()));
        }
        *self.index = BlockIndex::from_raw(base.index.iter().map(word).collect(), &base.shadows)
            .ok_or_else(|| bad("index words and shadow entries do not pair up".into()))?;
        *self.versions = DenseMap::from_words(u64::MAX, base.versions.iter().map(word).collect());
        Ok(())
    }

    fn install_delta(&mut self, delta: &DeltaImage<'_>) -> Result<(), RecoveryError> {
        for rec in &delta.segments {
            self.install_segment(rec)?;
        }
        for &(seg, off, raw) in &delta.patches {
            let patched =
                self.segments.get_mut(seg as usize).is_some_and(|s| s.restore_raw_slot(off, raw));
            if !patched {
                return Err(bad(format!("slot patch ({seg}, {off}) out of range")));
            }
        }
        self.install_groups(&delta.groups)?;
        let mut shadows = delta.shadows.iter().map(|&(lba, seg, off)| (lba, (seg, off)));
        let mut shadow = shadows.next();
        for ((lba, raw), version) in delta.lbas.iter().zip(delta.index).zip(delta.versions) {
            let (lba, version) = (word(lba), word(version));
            // Shadow entries were written in the order of the LBAs they
            // belong to, so one forward cursor pairs them up.
            let side = shadow.filter(|&(l, _)| l == lba).map(|(_, slot)| slot);
            if side.is_some() {
                shadow = shadows.next();
            }
            let entry = BlockIndex::unpack(word(raw), side)
                .filter(|_| lba < MAX_LBAS)
                .ok_or_else(|| bad(format!("delta entry for lba {lba} malformed")))?;
            self.index.set(lba, entry);
            if version == u64::MAX {
                self.versions.remove(lba);
            } else {
                self.versions.insert(lba, version);
            }
        }
        if shadow.is_some() {
            return Err(bad("delta shadow entry without its index word".into()));
        }
        Ok(())
    }

    /// Install one segment record: the whole segment when it carries
    /// slots from 0, else an extension of the segment as loaded so far.
    fn install_segment(&mut self, rec: &SegmentRec<'_>) -> Result<(), RecoveryError> {
        let Some(seg) = self.segments.get_mut(rec.id as usize) else {
            return Err(bad(format!("segment id {} out of range", rec.id)));
        };
        let cap = seg.capacity();
        let shape_ok = match rec.state {
            SegmentState::Free => rec.filled == 0,
            SegmentState::Open => rec.filled <= cap,
            SegmentState::Sealed => rec.filled == cap,
        };
        let extends = rec.from == 0
            || (seg.state == SegmentState::Open
                && seg.filled == rec.from
                && seg.open_seq == rec.open_seq);
        if !shape_ok || !extends || u32::from(rec.group) >= self.geometry.num_groups {
            return Err(bad(format!("segment {} record inconsistent", rec.id)));
        }
        if rec.from == 0 {
            seg.reset();
        }
        seg.state = rec.state;
        seg.group = rec.group;
        seg.filled = rec.filled;
        seg.open_seq = rec.open_seq;
        seg.created_user_bytes = rec.created_user_bytes;
        seg.created_ts_us = rec.created_ts_us;
        seg.chunk_seqs.extend(rec.chunk_seqs.iter().map(word));
        for (off, raw) in (rec.from..).zip(rec.slots) {
            seg.restore_raw_slot(off, word(raw));
        }
        Ok(())
    }

    fn install_groups(&mut self, recs: &[GroupRec]) -> Result<(), RecoveryError> {
        if recs.len() != self.groups.len() {
            return Err(bad(format!(
                "{} group records for {} groups",
                recs.len(),
                self.groups.len()
            )));
        }
        for (grp, rec) in self.groups.iter_mut().zip(recs) {
            if rec.pending.len() > self.geometry.chunk_blocks as usize {
                return Err(bad(format!("group {}: pending buffer over chunk size", grp.id)));
            }
            grp.open_segment = rec.open_segment;
            grp.sealed.clone_from(&rec.sealed);
            grp.pending.clone_from(&rec.pending);
            [
                grp.user_blocks,
                grp.gc_blocks,
                grp.shadow_blocks,
                grp.pad_blocks,
                grp.chunks,
                grp.pad_chunks,
            ] = rec.counters;
        }
        Ok(())
    }

    /// Cross-check everything installed — group lists against segment
    /// states, index entries against slot words and buffers — and derive
    /// what a checkpoint does not store: valid counts, sealed-list
    /// positions, the free list, the GC bucket index.
    fn validate_and_derive(&mut self) -> Result<(), RecoveryError> {
        let mut listed = vec![false; self.segments.len()];
        for grp in self.groups.iter() {
            let open = (grp.open_segment != SegmentId::MAX).then_some(grp.open_segment);
            let open = open.map(|id| (id, SegmentState::Open, 0));
            let sealed =
                grp.sealed.iter().zip(0..).map(|(&id, pos)| (id, SegmentState::Sealed, pos));
            for (id, state, pos) in open.into_iter().chain(sealed) {
                let seg = self.segments.get_mut(id as usize);
                let seg = seg.filter(|s| s.state == state && s.group == grp.id);
                let unclaimed = listed.get_mut(id as usize).filter(|claimed| !**claimed);
                let (Some(seg), Some(claimed)) = (seg, unclaimed) else {
                    let gid = grp.id;
                    return Err(bad(format!("group {gid}: segment {id} is not its {state:?} one")));
                };
                *claimed = true;
                seg.group_pos = pos;
                seg.valid_blocks = 0;
            }
        }
        if let Some(s) =
            self.segments.iter().find(|s| (s.state != SegmentState::Free) != listed[s.id as usize])
        {
            return Err(bad(format!("segment {} is {:?} but no group lists it", s.id, s.state)));
        }
        let mut buffered = 0usize;
        for lba in 0..self.index.len() as Lba {
            let (slot, expect) = match self.index.get(lba) {
                BlockEntry::Absent => continue,
                BlockEntry::Durable { seg, off } => (Some((seg, off)), Slot::Block(lba)),
                BlockEntry::Pending { group, shadow } => {
                    let home = self.groups.get(group as usize);
                    if home.and_then(|g| g.find_pending(lba)).is_none() {
                        return Err(bad(format!(
                            "lba {lba} pending in group {group} but not buffered"
                        )));
                    }
                    buffered += 1;
                    (shadow, Slot::Shadow(lba))
                }
            };
            let Some((seg, off)) = slot else { continue };
            let live = self.segments.get_mut(seg as usize).filter(|s| {
                s.state != SegmentState::Free && off < s.filled && s.slot(off) == expect
            });
            let Some(live) = live else {
                return Err(bad(format!("index entry for lba {lba} does not match its slot")));
            };
            live.valid_blocks += 1;
        }
        // Every index entry found its buffer slot above, so equal counts
        // mean the buffers hold nothing else (and no LBA twice).
        if buffered != self.groups.iter().map(|g| g.pending.len()).sum::<usize>() {
            return Err(bad("buffered blocks without a pending index entry".into()));
        }
        *self.free = (0..self.segments.len() as SegmentId)
            .rev()
            .filter(|&id| !listed[id as usize])
            .collect();
        *self.buckets = SegmentBuckets::new(
            self.geometry.chunk_blocks * self.geometry.segment_chunks,
            self.segments.len(),
        );
        for grp in self.groups.iter() {
            for &id in &grp.sealed {
                let s = &self.segments[id as usize];
                self.buckets.insert(id, s.valid_blocks, s.created_user_bytes);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::placement::{GroupKind, PlacementPolicy, PolicyCtx, SlaAction, VictimMeta};
    use crate::types::GroupId;
    use crate::wal::{self, FsyncPolicy, WalStats};
    use crate::{Lss, LssConfig, RecoveryReport};
    use adapt_array::{ArraySink, CountingArray};
    use adapt_trace::rng::mix64;
    use proptest::prelude::*;

    /// User writes to group 0, GC rewrites to the last group; with
    /// `shadow`, group 0's SLA expiries shadow-append into group 1.
    struct TestPolicy {
        groups: Vec<GroupKind>,
        shadow: bool,
    }

    impl TestPolicy {
        fn new(shadow: bool) -> Self {
            let groups = if shadow {
                vec![GroupKind::User, GroupKind::User, GroupKind::Gc]
            } else {
                vec![GroupKind::User, GroupKind::Gc]
            };
            Self { groups, shadow }
        }
    }

    impl PlacementPolicy for TestPolicy {
        fn name(&self) -> &'static str {
            "test"
        }
        fn groups(&self) -> &[GroupKind] {
            &self.groups
        }
        fn place_user(&mut self, _ctx: &PolicyCtx, _lba: Lba) -> GroupId {
            0
        }
        fn place_gc(&mut self, _ctx: &PolicyCtx, _lba: Lba, _v: &VictimMeta) -> GroupId {
            self.groups.len() as GroupId - 1
        }
        fn on_sla_expire(&mut self, _ctx: &PolicyCtx, group: GroupId) -> SlaAction {
            if self.shadow && group == 0 {
                SlaAction::ShadowAppend { target: 1 }
            } else {
                SlaAction::Pad
            }
        }
    }

    type Engine = Lss<TestPolicy, CountingArray>;

    pub(crate) fn dur_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("adapt_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// 32 user segments of 128 blocks, 16 spare.
    fn small_cfg() -> LssConfig {
        LssConfig {
            user_blocks: 4096,
            op_ratio: 0.5,
            gc_low_water: 5,
            gc_high_water: 7,
            ..Default::default()
        }
    }

    /// 16 user segments of 16 blocks, 12 spare: GC within a few hundred
    /// writes, cheap enough for a property test.
    fn tiny_cfg() -> LssConfig {
        LssConfig {
            chunk_blocks: 4,
            segment_chunks: 4,
            user_blocks: 256,
            op_ratio: 0.75,
            gc_low_water: 5,
            gc_high_water: 6,
            ..Default::default()
        }
    }

    fn dcfg(cadence: u64) -> DurabilityConfig {
        DurabilityConfig {
            checkpoint_every_flushes: cadence,
            rotate_bytes: 16 * 1024,
            ..Default::default()
        }
    }

    fn build(cfg: LssConfig, shadow: bool, dir: &Path, dcfg: DurabilityConfig) -> Engine {
        Lss::builder(TestPolicy::new(shadow), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .durability(dir, dcfg)
            .build()
    }

    fn recover(
        cfg: LssConfig,
        shadow: bool,
        dir: &Path,
        dcfg: DurabilityConfig,
    ) -> Result<(Engine, RecoveryReport), RecoveryError> {
        Lss::builder(TestPolicy::new(shadow), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .durability(dir, dcfg)
            .recover()
    }

    fn recover_checked(
        cfg: LssConfig,
        shadow: bool,
        dir: &Path,
        dcfg: DurabilityConfig,
    ) -> (Engine, RecoveryReport) {
        let (r, report) = recover(cfg, shadow, dir, dcfg).unwrap();
        r.check_invariants();
        r.try_check_recovery().unwrap();
        (r, report)
    }

    fn stats<P: PlacementPolicy, S: ArraySink>(e: &Lss<P, S>) -> WalStats {
        e.wal_stats().unwrap()
    }

    /// Compare full logical states, ignoring the clock scalars the WAL
    /// only carries at flush granularity (`ops_seen` is checkpoint-only;
    /// `now_us`/`user_bytes_clock` can lag by the buffered tail — the
    /// caller re-drives them with its next timestamped request anyway).
    fn assert_states_match<P: PlacementPolicy, S: ArraySink>(a: &Lss<P, S>, b: &Lss<P, S>) {
        let (a, b) = (a.durable_view().unwrap(), b.durable_view().unwrap());
        assert_eq!(a.geometry, b.geometry);
        assert_eq!(a.clocks.next_open_seq, b.clocks.next_open_seq, "next_open_seq");
        assert_eq!(a.clocks.next_flush_seq, b.clocks.next_flush_seq, "next_flush_seq");
        for (x, y) in a.segments.iter().zip(b.segments) {
            assert_eq!(x.state, y.state, "segment {} state", x.id);
            if x.state == SegmentState::Free {
                continue;
            }
            assert_eq!(
                (
                    x.group,
                    x.filled,
                    x.valid_blocks,
                    x.open_seq,
                    x.created_user_bytes,
                    x.created_ts_us
                ),
                (
                    y.group,
                    y.filled,
                    y.valid_blocks,
                    y.open_seq,
                    y.created_user_bytes,
                    y.created_ts_us
                ),
                "segment {} header",
                x.id
            );
            assert_eq!(x.chunk_seqs, y.chunk_seqs, "segment {} chunk seqs", x.id);
            assert_eq!(x.raw_slots(), y.raw_slots(), "segment {} slots", x.id);
            if x.state == SegmentState::Sealed {
                assert_eq!(x.group_pos, y.group_pos, "segment {} sealed position", x.id);
            }
        }
        for (x, y) in a.groups.iter().zip(b.groups) {
            assert_eq!(x.open_segment, y.open_segment, "group {} open segment", x.id);
            assert_eq!(x.sealed, y.sealed, "group {} sealed list", x.id);
            assert_eq!(x.pending, y.pending, "group {} pending buffer", x.id);
            assert_eq!(
                (x.user_blocks, x.gc_blocks, x.shadow_blocks, x.pad_blocks, x.chunks, x.pad_chunks),
                (y.user_blocks, y.gc_blocks, y.shadow_blocks, y.pad_blocks, y.chunks, y.pad_chunks),
                "group {} lifetime counters",
                x.id
            );
        }
        assert_eq!(a.index.len(), b.index.len(), "index table size");
        for lba in 0..a.index.len() as Lba {
            assert_eq!(a.index.get(lba), b.index.get(lba), "index entry of lba {lba}");
        }
        assert_eq!(
            a.versions.iter().collect::<Vec<_>>(),
            b.versions.iter().collect::<Vec<_>>(),
            "durable versions"
        );
    }

    fn scattered_lba(i: u64, space: u64) -> u64 {
        mix64(i) % space
    }

    /// Hot-loop workload: fills the log far enough to run GC, trims a
    /// range, and leaves some blocks buffered.
    fn durable_workload(e: &mut Engine) {
        let mut ts = 0u64;
        for i in 0..6 * 4096u64 {
            e.try_write(ts, scattered_lba(i, 4096)).unwrap();
            ts += 1;
        }
        e.try_trim(ts, 100, 50).unwrap();
        for i in 0..512u64 {
            e.try_write(ts + i, scattered_lba(i * 7 + 3, 4096)).unwrap();
        }
        assert!(e.metrics().segments_reclaimed > 0, "workload must exercise GC");
    }

    #[test]
    fn recovery_replays_wal_to_identical_state() {
        let dir = dur_dir("replay");
        // Cadence 0: no checkpoints — recovery is pure WAL replay.
        let dcfg = DurabilityConfig { checkpoint_every_flushes: 0, ..Default::default() };
        let mut e = build(small_cfg(), false, &dir, dcfg.clone());
        durable_workload(&mut e);
        e.sync_wal().unwrap();

        let (r, report) = recover_checked(small_cfg(), false, &dir, dcfg);
        assert!(!report.checkpoint_loaded);
        assert!(report.records_applied > 0);
        assert!(report.flushes_replayed > 0);
        assert_states_match(&e, &r);
        assert_eq!(r.sink().chunks_written(), e.sink().chunks_written());
    }

    #[test]
    fn recovery_from_base_deltas_and_wal_tail() {
        let dir = dur_dir("ckpt");
        // Aggressive cadence and tiny files: many checkpoints, folds,
        // rotations, and prunes during the run.
        let mut e = build(small_cfg(), false, &dir, dcfg(8));
        durable_workload(&mut e);
        e.sync_wal().unwrap();
        let s = stats(&e);
        assert!(s.checkpoint_bases >= 3, "delta log must have folded: {s:?}");
        assert!(s.checkpoints > 4 * s.checkpoint_bases, "most checkpoints are deltas: {s:?}");
        assert!(s.files_pruned > 0);
        assert!(wal::list_wal_indices(&dir).unwrap().len() <= 3, "covered WAL files are pruned");

        let (r, report) = recover_checked(small_cfg(), false, &dir, dcfg(8));
        assert!(report.checkpoint_loaded);
        assert!(report.deltas_applied > 0, "{report:?}");
        assert!(!report.torn_delta && !report.stale_deltas);
        assert!(report.flushes_replayed <= 8, "replay is bounded by the cadence: {report:?}");
        assert_states_match(&e, &r);
    }

    /// Stragglers time out and shadow-append into group 1; later writes
    /// overwrite or lazily append them, tombstoning the shadow slots.
    fn shadow_workload(e: &mut Engine) {
        let mut ts = 0u64;
        for round in 0..40u64 {
            for i in 0..200u64 {
                e.try_write(ts, scattered_lba(round * 200 + i, 4096)).unwrap();
                ts += 1;
            }
            for k in 0..3 {
                e.try_write(ts + 10_000, scattered_lba(round * 3 + k, 64)).unwrap();
            }
            ts += 300_000;
            e.try_advance_time(ts).unwrap();
        }
        assert!(e.metrics().shadow_append_events > 0, "must exercise shadow append");
        assert!(e.metrics().lazy_appends > 0, "must exercise lazy append");
    }

    #[test]
    fn recovery_with_shadow_appends() {
        for cadence in [0, 4] {
            let dir = dur_dir(&format!("shadow{cadence}"));
            let mut e = build(small_cfg(), true, &dir, dcfg(cadence));
            shadow_workload(&mut e);
            e.sync_wal().unwrap();
            let (r, report) = recover_checked(small_cfg(), true, &dir, dcfg(cadence));
            assert_eq!(report.deltas_applied > 0, cadence > 0);
            assert_states_match(&e, &r);
        }
    }

    #[test]
    fn torn_tail_loses_nothing_acknowledged() {
        let dir = dur_dir("torn");
        let dcfg = DurabilityConfig {
            fsync: FsyncPolicy::GroupCommit(4),
            checkpoint_every_flushes: 0,
            ..Default::default()
        };
        let mut e = build(small_cfg(), false, &dir, dcfg.clone());
        let mut acked = Vec::new();
        for i in 0..2048u64 {
            e.try_write(i, scattered_lba(i, 4096)).unwrap();
            e.drain_durable_acks(&mut acked);
        }
        assert!(!acked.is_empty());
        drop(e);
        // Scribble garbage over the live WAL file's tail, like a write the
        // power cut mid-stream.
        let last = wal::list_wal_indices(&dir).unwrap().pop().unwrap();
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(wal::wal_file_name(last)))
            .unwrap();
        f.write_all(&[0xA5; 37]).unwrap();
        drop(f);

        let (r, report) = recover(small_cfg(), false, &dir, dcfg).unwrap();
        assert!(report.torn_tail.is_some(), "garbage tail must be detected");
        r.check_invariants();
        for &(lba, version) in &acked {
            let got = r.durable_version(lba);
            assert!(
                got.is_some_and(|v| v >= version),
                "acked write lost: lba {lba} v{version} recovered {got:?}"
            );
        }
    }

    #[test]
    fn recovery_handles_arbitrary_garbage_without_panicking() {
        // Garbage checkpoint: typed error, no panic.
        let dir = dur_dir("garbage_ckpt");
        std::fs::write(dir.join(CHECKPOINT_FILE), b"not a checkpoint at all").unwrap();
        std::fs::write(dir.join(wal::wal_file_name(0)), [0u8; 64]).unwrap();
        match recover(small_cfg(), false, &dir, DurabilityConfig::default()) {
            Err(RecoveryError::BadCheckpoint { .. }) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("garbage checkpoint accepted"),
        }

        // Garbage WAL and a delta log with no base: torn at offset zero,
        // clean cold start.
        let dir2 = dur_dir("garbage_wal");
        std::fs::write(dir2.join(wal::wal_file_name(0)), [0xFFu8; 256]).unwrap();
        std::fs::write(dir2.join(DELTA_FILE), [0x5Au8; 99]).unwrap();
        let (r, report) = recover(small_cfg(), false, &dir2, DurabilityConfig::default()).unwrap();
        assert_eq!(report.records_applied, 0);
        assert_eq!(report.torn_tail, Some((0, 0)));
        r.check_invariants();
    }

    #[test]
    fn recover_without_durability_dir_is_typed() {
        let cfg = small_cfg();
        let res = Lss::builder(TestPolicy::new(false), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .recover();
        match res {
            Err(RecoveryError::NotConfigured) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("recover without a durability dir must fail"),
        }
    }

    #[test]
    fn a_new_engine_wipes_stale_checkpoint_files() {
        let dir = dur_dir("wipe");
        let mut e = build(small_cfg(), false, &dir, dcfg(8));
        durable_workload(&mut e);
        drop(e);
        assert!(std::fs::metadata(dir.join(DELTA_FILE)).unwrap().len() > 0);
        let e = build(small_cfg(), false, &dir, dcfg(8));
        assert!(!dir.join(CHECKPOINT_FILE).exists());
        assert_eq!(std::fs::metadata(dir.join(DELTA_FILE)).unwrap().len(), 0);
        drop(e);
        let (_, report) = recover(small_cfg(), false, &dir, dcfg(8)).unwrap();
        assert!(!report.checkpoint_loaded);
    }

    /// Seeded op stream for the differential tests: mostly single-block
    /// writes skewed onto a hot set, some trims, and idle gaps long
    /// enough for SLA expiries (padding, or shadow append).
    fn drive(e: &mut Engine, seed: u64, ops: u64, blocks: u64) {
        let mut ts = 0u64;
        for i in 0..ops {
            let r = mix64(seed ^ mix64(i));
            ts += if r.is_multiple_of(23) { 150 + r % 200 } else { r % 3 };
            let space = if r.is_multiple_of(3) { blocks / 8 } else { blocks };
            let lba = mix64(r) % space;
            if r.is_multiple_of(29) {
                // `lba < space <= blocks`, so the run stays inside the volume.
                e.try_trim(ts, lba, (1 + (r >> 8) % 8).min(blocks - lba) as u32).unwrap();
            } else {
                e.try_write(ts, lba).unwrap();
            }
        }
        e.sync_wal().unwrap();
    }

    proptest! {
        /// Recovery through base + deltas + WAL, recovery through the WAL
        /// alone, and the live engine all agree, for random
        /// write/trim/GC streams at checkpoint cadences that produce
        /// several deltas and several folds.
        #[test]
        fn base_plus_deltas_equals_wal_only_equals_live(
            seed in any::<u64>(),
            ops in 1200u64..2400,
            cadence in 4u64..=16,
            shadow in prop::bool::ANY,
        ) {
            let cfg = tiny_cfg();
            let dir = dur_dir(&format!("diff_{seed:x}"));
            let (with_ckpt, wal_only) = (dir.join("ckpt"), dir.join("wal"));
            let mut live = build(cfg, shadow, &with_ckpt, dcfg(cadence));
            drive(&mut live, seed, ops, cfg.user_blocks);
            let mut twin = build(cfg, shadow, &wal_only, dcfg(0));
            drive(&mut twin, seed, ops, cfg.user_blocks);
            prop_assert!(live.metrics().segments_reclaimed > 0, "stream must exercise GC");
            let s = stats(&live);
            prop_assert!(s.checkpoint_bases >= 3, "at least two folds: {s:?}");
            prop_assert!(s.checkpoints > s.checkpoint_bases, "some deltas: {s:?}");

            let (a, report) = recover_checked(cfg, shadow, &with_ckpt, dcfg(cadence));
            prop_assert!(report.checkpoint_loaded);
            prop_assert!(report.flushes_replayed <= cadence, "{report:?}");
            let (b, report) = recover_checked(cfg, shadow, &wal_only, dcfg(0));
            prop_assert!(!report.checkpoint_loaded);
            assert_states_match(&live, &a);
            assert_states_match(&live, &b);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A directory holding a base and a few delta frames, the live engine
    /// that wrote it, and the frame boundaries of its delta log.
    fn base_and_deltas(name: &str) -> (PathBuf, Engine, Vec<usize>) {
        let dir = dur_dir(name);
        let mut e = build(tiny_cfg(), true, &dir, dcfg(4));
        let mut seed = 7;
        loop {
            drive(&mut e, seed, 300, 256);
            seed += 1;
            let log = std::fs::read(dir.join(DELTA_FILE)).unwrap();
            let mut ends = Vec::new();
            while let Some((_, next)) =
                split_frame(&log, ends.last().copied().unwrap_or(0), u32::MAX)
            {
                ends.push(next);
            }
            if ends.len() >= 3 {
                assert_eq!(ends.last(), Some(&log.len()));
                return (dir, e, ends);
            }
        }
    }

    /// Garbage never panics: every truncation of `checkpoint.bin` and any
    /// byte flip in it is a typed error.
    #[test]
    fn damaged_base_is_a_typed_error_at_every_byte() {
        let (dir, _e, _) = base_and_deltas("bad_base");
        let path = dir.join(CHECKPOINT_FILE);
        let good = std::fs::read(&path).unwrap();
        let expect_bad = |bytes: &[u8], what: String| {
            std::fs::write(&path, bytes).unwrap();
            match recover(tiny_cfg(), true, &dir, dcfg(4)) {
                Err(RecoveryError::BadCheckpoint { .. }) => {}
                Err(other) => panic!("{what}: wrong error {other}"),
                Ok(_) => panic!("{what}: accepted"),
            }
        };
        for cut in (0..good.len()).step_by(7).chain(good.len() - 8..good.len()) {
            expect_bad(&good[..cut], format!("prefix {cut}"));
        }
        for i in (0..good.len()).step_by(5) {
            let mut mangled = good.clone();
            mangled[i] ^= 0x10;
            expect_bad(&mangled, format!("flip at {i}"));
        }
    }

    /// Garbage never panics: a truncation of `checkpoint.delta` anywhere
    /// (every byte around the frame boundaries, sampled in between) and
    /// any byte flip in it falls back cleanly to the frames before the
    /// damage. (`recovery::tests` cuts and flips every byte of a frame at
    /// the codec level.)
    #[test]
    fn damaged_delta_log_falls_back_to_the_previous_frame() {
        let (dir, _e, ends) = base_and_deltas("bad_delta");
        let path = dir.join(DELTA_FILE);
        let good = std::fs::read(&path).unwrap();
        let frames_before = |byte: usize| ends.iter().filter(|&&end| end <= byte).count() as u64;
        let recovered_with = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            let (r, report) = recover(tiny_cfg(), true, &dir, dcfg(4)).unwrap();
            assert!(report.checkpoint_loaded);
            (r, report)
        };
        let near_a_boundary = |cut: usize| ends.iter().any(|end| end.abs_diff(cut) <= 9);
        for cut in (0..good.len()).filter(|&cut| cut % 13 == 0 || near_a_boundary(cut)) {
            let (_, report) = recovered_with(&good[..cut]);
            assert_eq!(report.deltas_applied, frames_before(cut), "prefix {cut}");
            assert_eq!(report.torn_delta, !ends.contains(&cut) && cut > 0, "prefix {cut}");
        }
        for i in (0..good.len()).step_by(17) {
            let mut mangled = good.clone();
            mangled[i] ^= 0x04;
            let (_, report) = recovered_with(&mangled);
            assert_eq!(report.deltas_applied, frames_before(i), "flip at {i}");
            assert!(report.torn_delta, "flip at {i}");
        }
    }

    /// Power cuts inside the checkpoint itself, placed from a metered
    /// golden run: mid delta frame, mid base temp file, before the base
    /// rename, and between the rename and the delta-log truncation.
    #[test]
    fn crash_inside_a_checkpoint_recovers_through_the_previous_one() {
        let run = |dir: &Path, budget: Arc<PowerBudget>| {
            let dcfg = DurabilityConfig { budget: Some(budget), ..dcfg(4) };
            let mut e = build(tiny_cfg(), false, dir, dcfg);
            let mut acked = Vec::new();
            for i in 0..3000u64 {
                let res = e.try_write(i, scattered_lba(i, 256));
                e.drain_durable_acks(&mut acked);
                if res.is_err() {
                    break;
                }
            }
            acked
        };
        let golden = PowerBudget::metered();
        let dir = dur_dir("cut_golden");
        run(&dir, golden.clone());
        let mut cuts = Vec::new(); // (budget, class)
        let (mut at, mut frames, mut bases) = (0u64, 0, 0);
        let journal = golden.journal();
        for (i, &(tag, bytes)) in journal.iter().enumerate() {
            if tag == WriteTag::CheckpointDelta && bytes > 1 {
                frames += 1;
                if frames % 5 == 0 {
                    cuts.push((at + bytes / 2, "delta"));
                }
            }
            if tag == WriteTag::Superblock {
                bases += 1;
                // The third base is a fold with deltas before it.
                if bases == 3 {
                    assert_eq!(
                        journal[i + 1..i + 3],
                        [(WriteTag::Rename, 1), (WriteTag::CheckpointDelta, 1)]
                    );
                    cuts.push((at + bytes / 2, "base temp"));
                    cuts.push((at + bytes, "before rename"));
                    cuts.push((at + bytes + 1, "before truncation"));
                }
            }
            at += bytes;
        }
        assert!(cuts.len() >= 6, "golden run too short: {cuts:?}");
        for (budget, class) in cuts {
            let dir = dur_dir("cut_point");
            let acked = run(&dir, PowerBudget::limited(budget));
            let (r, report) = recover_checked(tiny_cfg(), false, &dir, dcfg(4));
            assert!(report.checkpoint_loaded, "{class}");
            match class {
                "delta" => assert!(report.torn_delta, "{report:?}"),
                "before truncation" => assert!(report.stale_deltas, "{report:?}"),
                _ => assert!(report.deltas_applied > 0, "{class}: {report:?}"),
            }
            for &(lba, version) in &acked {
                let got = r.durable_version(lba);
                assert!(got.is_some_and(|v| v >= version), "{class}: lost lba {lba} v{version}");
            }
        }
    }

    /// A CRC-valid base or frame that contradicts itself is refused with
    /// a typed error: encode doctored copies of a live engine's state.
    #[test]
    fn consistent_crc_inconsistent_content_is_a_bad_checkpoint() {
        let (dir, e, _) = base_and_deltas("doctored");
        std::fs::write(dir.join(DELTA_FILE), []).unwrap();
        let view = e.durable_view().unwrap();
        let sealed_of = |gid: usize| view.groups[gid].sealed[0] as usize;
        let a_durable = (0..view.index.len() as Lba)
            .find(|&l| matches!(view.index.get(l), BlockEntry::Durable { .. }))
            .unwrap();
        type Doctor = fn(&mut Vec<Segment>, &mut Vec<GroupRec>, &mut BlockIndex, usize, Lba);
        fn stray(lba: Lba) -> crate::group::PendingBlock {
            let traffic = adapt_array::Traffic::User;
            crate::group::PendingBlock { lba, traffic, arrival_us: 1, needs_sla: true }
        }
        // (the damage, a fragment of the error it must produce, how)
        let cases: [(&str, &str, Doctor); 8] = [
            ("sealed segment listed twice", "is not its Sealed one", |_, g, _, s, _| {
                g[0].sealed.push(s as SegmentId)
            }),
            ("sealed segment listed nowhere", "no group lists it", |_, g, _, _, _| {
                g[0].sealed.pop();
            }),
            ("groups swapped", "is not its", |_, g, _, _, _| g.swap(0, 2)),
            (
                "segment of a group that does not exist",
                "record inconsistent",
                |segs, _, _, s, _| segs[s].group = 9,
            ),
            ("index entry naming another block's slot", "does not match its slot", {
                |_, _, idx, s, lba| {
                    idx.set(lba, BlockEntry::Durable { seg: s as SegmentId, off: 0 });
                    idx.set(lba + 1, BlockEntry::Durable { seg: s as SegmentId, off: 0 });
                }
            }),
            ("pending entry with nothing buffered", "but not buffered", |_, _, idx, _, lba| {
                idx.set(lba, BlockEntry::Pending { group: 1, shadow: None });
            }),
            ("buffered block the index calls durable", "without a pending index entry", {
                |_, g, _, _, lba| g[1].pending.push(stray(lba))
            }),
            ("buffer longer than a chunk", "over chunk size", |_, g, _, _, lba| {
                g[1].pending.extend((0..5).map(|_| stray(lba)))
            }),
        ];
        for (what, expect, doctor) in cases {
            let mut segments = view.segments.to_vec();
            let mut groups: Vec<GroupRec> = view
                .groups
                .iter()
                .map(|g| GroupRec {
                    open_segment: g.open_segment,
                    counters: [0; 6],
                    sealed: g.sealed.clone(),
                    pending: g.pending.clone(),
                })
                .collect();
            let mut index =
                BlockIndex::from_raw(view.index.words().to_vec(), &view.index.shadow_slots())
                    .unwrap();
            doctor(&mut segments, &mut groups, &mut index, sealed_of(0), a_durable);
            let doctored_groups: Vec<Group> = view
                .groups
                .iter()
                .zip(&groups)
                .map(|(g, rec)| {
                    let mut d = Group::new(g.id, g.kind);
                    d.open_segment = rec.open_segment;
                    d.sealed.clone_from(&rec.sealed);
                    d.pending.clone_from(&rec.pending);
                    d
                })
                .collect();
            let doctored =
                View { segments: &segments, groups: &doctored_groups, index: &index, ..view };
            let mut bytes = Vec::new();
            encode_base(&mut bytes, 9, 0, &doctored);
            std::fs::write(dir.join(CHECKPOINT_FILE), &bytes).unwrap();
            match recover(tiny_cfg(), true, &dir, dcfg(4)) {
                Err(RecoveryError::BadCheckpoint { detail }) => {
                    assert!(detail.contains(expect), "{what}: refused for another reason: {detail}")
                }
                Err(other) => panic!("{what}: wrong error {other}"),
                Ok(_) => panic!("{what}: accepted"),
            }
        }
        // Same bytes, other geometry: its own error.
        let mut bytes = Vec::new();
        encode_base(&mut bytes, 9, 0, &view);
        std::fs::write(dir.join(CHECKPOINT_FILE), &bytes).unwrap();
        let other = LssConfig { user_blocks: 512, ..tiny_cfg() };
        assert!(matches!(
            recover(other, true, &dir, dcfg(4)),
            Err(RecoveryError::GeometryMismatch { .. })
        ));
    }

    /// "O(change)" as a count, at the benchmark's `serve-durable` shape:
    /// 64 Ki blocks, uniform single-block writes, a checkpoint every 256
    /// flushes.
    #[test]
    fn steady_state_checkpoints_cost_a_fraction_of_a_base() {
        let dir = dur_dir("o_change");
        let cfg = LssConfig { user_blocks: 64 * 1024, ..Default::default() };
        let mut e = Lss::builder(TestPolicy::new(false), CountingArray::new(cfg.array_config()))
            .config(cfg)
            .durability(&dir, DurabilityConfig { checkpoint_every_flushes: 256, ..dcfg(256) })
            .build();
        for lba in 0..cfg.user_blocks {
            e.try_write(0, lba).unwrap();
        }
        let write = |e: &mut Lss<_, _>, n: u64, salt: u64| {
            for i in 0..n {
                e.try_write(1, mix64(salt ^ i) % cfg.user_blocks).unwrap();
            }
        };
        // Warm up past the first base, then measure whole fold cycles.
        write(&mut e, 16 * 1024, 1);
        let before = stats(&e);
        let base_bytes = std::fs::metadata(dir.join(CHECKPOINT_FILE)).unwrap().len();
        let mut rounds = 0;
        while stats(&e).checkpoint_bases < before.checkpoint_bases + 3 {
            rounds += 1;
            assert!(rounds < 64, "the delta log never folds");
            write(&mut e, 16 * 1024, 1 + rounds);
        }
        let after = stats(&e);
        let checkpoints = after.checkpoints - before.checkpoints;
        let mean = (after.checkpoint_bytes - before.checkpoint_bytes) / checkpoints;
        assert!(
            mean * 5 <= base_bytes,
            "mean {mean} B per checkpoint over {checkpoints} checkpoints vs a {base_bytes} B base"
        );
        assert_eq!(after.checkpoint_bases - before.checkpoint_bases, 3, "folds");
        // The cadence is honoured: one checkpoint per 256 flushes.
        assert_eq!(after.checkpoints, e.metrics().chunks_flushed / 256);
    }
}

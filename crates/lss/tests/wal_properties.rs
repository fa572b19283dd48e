//! Property tests for the WAL's on-disk framing.
//!
//! The frame format (`[len][payload][crc32c]`) carries the whole
//! durability story: recovery trusts exactly the longest decodable
//! prefix. These tests pin the three load-bearing guarantees for
//! arbitrary record batches: round-trip fidelity, truncation at *every*
//! byte offset yielding exactly the full-frame prefix, and single-bit
//! corruption never smuggling a wrong record past the CRC.

use adapt_array::CountingArray;
use adapt_lss::wal::{
    decode_frame, repair_tail, replay_dir, DurabilityConfig, FsyncPolicy, Wal, WalRecord, WalSlot,
    WalSlotKind,
};
use adapt_lss::{
    GcSelection, GroupId, Lba, Lss, LssConfig, PlacementPolicy, PolicyCtx, SegmentId, VictimMeta,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Map a tuple of arbitraries onto one record, exercising every variant
/// (including `Flush` slot vectors of every kind mix).
fn record_from(tag: u8, a: u64, b: u64, n: u32) -> WalRecord {
    match tag % 6 {
        0 => WalRecord::Open {
            seg: a as u32,
            group: b as GroupId,
            open_seq: a ^ b,
            created_user_bytes: b,
            created_ts_us: a,
        },
        1 => WalRecord::BufferAppend {
            lba: a,
            version: b,
            group: (a >> 8) as GroupId,
            gc: a & 1 == 1,
            needs_sla: b & 1 == 1,
        },
        2 => {
            let slots = (0..n % 12)
                .map(|i| WalSlot {
                    kind: match (a >> i) % 3 {
                        0 => WalSlotKind::User,
                        1 => WalSlotKind::Gc,
                        _ => WalSlotKind::Shadow,
                    },
                    lba: a.wrapping_mul(u64::from(i) + 1),
                    version: b ^ u64::from(i),
                })
                .collect();
            WalRecord::Flush {
                flush_seq: a,
                seg: b as u32,
                chunk_in_seg: n,
                group: (b >> 16) as GroupId,
                now_us: b,
                user_bytes_clock: a,
                pad_blocks: n % 7,
                slots,
            }
        }
        3 => WalRecord::GcBegin { seg: a as u32 },
        4 => WalRecord::Reclaim { seg: b as u32 },
        _ => WalRecord::Trim { lba: a, blocks: n },
    }
}

/// Encode a batch into one contiguous buffer, returning the byte offset
/// just past each frame.
fn encode_batch(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut buf = Vec::new();
    let mut ends = Vec::with_capacity(records.len());
    for rec in records {
        rec.encode_frame(&mut buf);
        ends.push(buf.len());
    }
    (buf, ends)
}

/// Decode frames sequentially until the stream stops validating.
fn decode_all(buf: &[u8]) -> Vec<WalRecord> {
    let mut out = Vec::new();
    let mut off = 0;
    while let Some((rec, next)) = decode_frame(buf, off) {
        out.push(rec);
        off = next;
    }
    out
}

fn records_of(ops: &[(u8, u64, u64, u32)]) -> Vec<WalRecord> {
    ops.iter().map(|&(t, a, b, n)| record_from(t, a, b, n)).collect()
}

fn tdir(name: &str, salt: u64) -> PathBuf {
    let d =
        std::env::temp_dir().join(format!("adapt_walprop_{name}_{}_{salt}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

proptest! {
    /// Any batch of records round-trips bit-exactly through the frame
    /// codec.
    #[test]
    fn frames_roundtrip(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>(), 0u32..40), 1..40),
    ) {
        let records = records_of(&ops);
        let (buf, _) = encode_batch(&records);
        prop_assert_eq!(decode_all(&buf), records);
    }

    /// Truncating the stream at ANY byte offset recovers exactly the
    /// records whose frames fit entirely below the cut — never a torn
    /// record, never a lost complete one.
    #[test]
    fn truncation_yields_exact_frame_prefix(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>(), 0u32..40), 1..30),
        cut_seed in any::<u64>(),
    ) {
        let records = records_of(&ops);
        let (buf, ends) = encode_batch(&records);
        let cut = (cut_seed % (buf.len() as u64 + 1)) as usize;
        let expect = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(decode_all(&buf[..cut]), &records[..expect]);
    }

    /// Flipping any single bit anywhere in the stream stops decoding at
    /// (or before) the damaged frame: the decoded records are always a
    /// strict prefix of the originals, never altered data.
    #[test]
    fn single_bit_flip_is_detected(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>(), 0u32..40), 1..30),
        pos_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let records = records_of(&ops);
        let (mut buf, _) = encode_batch(&records);
        let pos = (pos_seed % buf.len() as u64) as usize;
        buf[pos] ^= 1u8 << bit;
        let decoded = decode_all(&buf);
        prop_assert!(decoded.len() < records.len());
        prop_assert_eq!(decoded.as_slice(), &records[..decoded.len()]);
    }

    /// Decoding arbitrary garbage never panics and never fabricates more
    /// than the garbage could hold.
    #[test]
    fn arbitrary_garbage_never_panics(noise in prop::collection::vec(any::<u8>(), 0..400)) {
        let decoded = decode_all(&noise);
        // Each decoded frame consumed at least 9 bytes (len + 1-byte
        // payload + crc).
        prop_assert!(decoded.len() <= noise.len() / 9);
    }
}

proptest! {
    /// Against a real on-disk WAL: commit a batch, truncate the file at an
    /// arbitrary offset (simulating a torn tail), and replay. Recovery
    /// must return exactly the durable full-frame prefix, flag the tear
    /// iff the cut is mid-frame, and `repair_tail` must make a second
    /// replay clean and identical.
    #[test]
    fn torn_file_replays_durable_prefix(
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>(), 0u32..20), 1..20),
        cut_seed in any::<u64>(),
    ) {
        let records = records_of(&ops);
        let dir = tdir("torn", cut_seed ^ ops.len() as u64);
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::EveryCommit,
            rotate_bytes: u64::MAX,
            checkpoint_every_flushes: 0,
            fsync_data: false,
            budget: None,
        };
        let mut wal = Wal::create(&dir, cfg).unwrap();
        let path = dir.join("wal-000000.log");
        let mut ends = Vec::new();
        for rec in &records {
            wal.append(rec);
            wal.commit().unwrap();
            ends.push(std::fs::metadata(&path).unwrap().len());
        }
        drop(wal);
        let total = *ends.last().unwrap();
        let cut = cut_seed % (total + 1);
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(cut).unwrap();

        let replay = replay_dir(&dir, 0).unwrap();
        let expect = ends.iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(replay.records.as_slice(), &records[..expect]);
        let at_boundary = cut == 0 || ends.contains(&cut);
        prop_assert_eq!(replay.torn.is_some(), !at_boundary);

        repair_tail(&dir, &replay).unwrap();
        let again = replay_dir(&dir, 0).unwrap();
        prop_assert_eq!(again.records.as_slice(), &records[..expect]);
        prop_assert!(again.torn.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

struct OneGroup;
impl PlacementPolicy for OneGroup {
    fn name(&self) -> &'static str {
        "one"
    }
    fn groups(&self) -> &[adapt_lss::GroupKind] {
        &[adapt_lss::GroupKind::Mixed]
    }
    fn place_user(&mut self, _c: &PolicyCtx, _l: Lba) -> GroupId {
        0
    }
    fn place_gc(&mut self, _c: &PolicyCtx, _l: Lba, _v: &VictimMeta) -> GroupId {
        0
    }
}

proptest! {
    /// Full-engine recovery over arbitrary garbage durable state — noise
    /// in the WAL file, optionally a noise checkpoint — never panics: it
    /// either recovers (ignoring the undecodable tail) or returns a typed
    /// error.
    #[test]
    fn engine_recover_survives_garbage(
        noise in prop::collection::vec(any::<u8>(), 1..300),
        bad_checkpoint in any::<bool>(),
    ) {
        let salt = noise.iter().map(|&b| u64::from(b)).sum::<u64>()
            ^ (noise.len() as u64) << 9
            ^ u64::from(bad_checkpoint);
        let dir = tdir("garbage", salt);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal-000000.log"), &noise).unwrap();
        if bad_checkpoint {
            std::fs::write(dir.join("checkpoint.bin"), &noise).unwrap();
        }
        let cfg = LssConfig {
            user_blocks: 4096,
            op_ratio: 0.5,
            gc_low_water: 5,
            gc_high_water: 7,
            ..Default::default()
        };
        let res = Lss::builder(OneGroup, CountingArray::new(cfg.array_config()))
            .config(cfg)
            .gc_select(GcSelection::Greedy)
            .durability(
                &dir,
                DurabilityConfig {
                    fsync: FsyncPolicy::EveryCommit,
                    rotate_bytes: u64::MAX,
                    checkpoint_every_flushes: 0,
                    fsync_data: false,
                    budget: None,
                },
            )
            .recover();
        // No panic is the property; both outcomes are legitimate.
        match res {
            Ok((engine, report)) => {
                engine.check_invariants();
                prop_assert_eq!(report.records_applied, 0);
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Three groups: host writes land in group 0, GC rewrites in group 1, and
/// group 2 stays idle — a group without an open segment, for the cases
/// that open one.
struct UserGcIdle;
impl PlacementPolicy for UserGcIdle {
    fn name(&self) -> &'static str {
        "user-gc-idle"
    }
    fn groups(&self) -> &[adapt_lss::GroupKind] {
        use adapt_lss::GroupKind::{Gc, User};
        &[User, Gc, User]
    }
    fn place_user(&mut self, _c: &PolicyCtx, _l: Lba) -> GroupId {
        0
    }
    fn place_gc(&mut self, _c: &PolicyCtx, _l: Lba, _v: &VictimMeta) -> GroupId {
        1
    }
}

fn replay_cfg() -> LssConfig {
    LssConfig {
        user_blocks: 4096,
        op_ratio: 0.5,
        gc_low_water: 5,
        gc_high_water: 7,
        ..Default::default()
    }
}

fn replay_builder(dir: &Path) -> adapt_lss::EngineBuilder<UserGcIdle, CountingArray> {
    let cfg = replay_cfg();
    Lss::builder(UserGcIdle, CountingArray::new(cfg.array_config()))
        .config(cfg)
        .gc_select(GcSelection::Greedy)
        .durability(
            dir,
            DurabilityConfig {
                fsync: FsyncPolicy::EveryCommit,
                rotate_bytes: u64::MAX,
                checkpoint_every_flushes: 0,
                fsync_data: false,
                budget: None,
            },
        )
}

/// What the durable prefix left behind, read off its own records.
struct PrefixState {
    /// The flush sequence the next `Flush` must carry.
    next_seq: u64,
    /// Group 0's open segment and how many chunks it holds.
    open: SegmentId,
    open_chunks: u32,
    /// A sealed segment (with live blocks) still attached to group 0.
    sealed: SegmentId,
    /// The GC victim, reclaimed to the free pool.
    free: SegmentId,
}

/// Write a real durable history into `dir` — two sealed segments, an
/// overwrite, one GC pass, four blocks left buffered — and read back its
/// shape from the log.
fn durable_prefix(dir: &Path) -> PrefixState {
    let mut e = replay_builder(dir).build();
    let mut ts = 0;
    for lba in (0..256).chain(0..32) {
        e.try_write(ts, lba).unwrap();
        ts += 1;
    }
    assert!(e.try_gc_step().unwrap());
    for lba in 300..304 {
        e.try_write(ts, lba).unwrap();
        ts += 1;
    }
    e.sync_wal().unwrap();
    drop(e);

    let records = replay_dir(dir, 0).unwrap().records;
    let flushes = |seg: SegmentId| {
        records.iter().filter(|r| matches!(r, WalRecord::Flush { seg: s, .. } if *s == seg)).count()
    };
    let victim = records.iter().find_map(|r| match r {
        WalRecord::GcBegin { seg } => Some(*seg),
        _ => None,
    });
    let open = records.iter().rev().find_map(|r| match r {
        WalRecord::Open { seg, group: 0, .. } => Some(*seg),
        _ => None,
    });
    let segment_chunks = replay_cfg().segment_chunks as usize;
    let sealed = records.iter().find_map(|r| match r {
        WalRecord::Open { seg, .. } if Some(*seg) != victim && flushes(*seg) == segment_chunks => {
            Some(*seg)
        }
        _ => None,
    });
    assert!(records.contains(&WalRecord::Reclaim { seg: victim.unwrap() }));
    let open = open.unwrap();
    PrefixState {
        next_seq: records.iter().filter(|r| matches!(r, WalRecord::Flush { .. })).count() as u64,
        open,
        open_chunks: flushes(open) as u32,
        sealed: sealed.unwrap(),
        free: victim.unwrap(),
    }
}

/// Recover a copy of the prefix in `base` with `tail` appended as
/// CRC-valid frames, and return the outcome's display.
fn recover_with_tail(base: &Path, case: &str, tail: &[WalRecord]) -> Result<(), String> {
    let dir = tdir(&format!("replay_{case}"), 0);
    std::fs::create_dir_all(&dir).unwrap();
    let mut log = std::fs::read(base.join("wal-000000.log")).unwrap();
    for rec in tail {
        rec.encode_frame(&mut log);
    }
    std::fs::write(dir.join("wal-000000.log"), &log).unwrap();
    let res = replay_builder(&dir).recover();
    std::fs::remove_dir_all(&dir).unwrap();
    match res {
        Ok((engine, _)) => {
            engine.check_invariants();
            Ok(())
        }
        Err(e) => Err(e.to_string()),
    }
}

fn append(lba: Lba, group: GroupId) -> WalRecord {
    WalRecord::BufferAppend { lba, version: 1_000, group, gc: false, needs_sla: true }
}

fn flush(
    seq: u64,
    seg: SegmentId,
    chunk: u32,
    group: GroupId,
    slots: Vec<WalSlot>,
    pad: u32,
) -> WalRecord {
    WalRecord::Flush {
        flush_seq: seq,
        seg,
        chunk_in_seg: chunk,
        group,
        now_us: 1_000,
        user_bytes_clock: 0,
        pad_blocks: pad,
        slots,
    }
}

fn slot(kind: WalSlotKind, lba: Lba) -> WalSlot {
    WalSlot { kind, lba, version: 0 }
}

/// Assert every case makes recovery fail with a replay error (a typed
/// error, not a panic), after checking the bare prefix recovers.
fn assert_rejected(
    name: &str,
    cases: impl FnOnce(&PrefixState) -> Vec<(&'static str, Vec<WalRecord>)>,
) {
    let base = tdir(name, 0);
    let state = durable_prefix(&base);
    assert_eq!(recover_with_tail(&base, &format!("{name}_clean"), &[]), Ok(()));
    for (case, tail) in cases(&state) {
        let err = recover_with_tail(&base, &format!("{name}_{case}"), &tail)
            .expect_err(&format!("{case}: recovery accepted an inconsistent record"));
        assert!(err.contains("inconsistent WAL record"), "{case}: {err}");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// Every structural check replay makes of a CRC-valid record against the
/// state rebuilt so far, reached by a record sequence appended to a real
/// durable prefix. (A stale shadow pointer and a pending index entry
/// without its buffer copy need an inconsistent starting state: from a
/// consistent prefix no record sequence produces either.)
#[test]
fn replay_rejects_inconsistent_records() {
    let total = replay_cfg().total_segments();
    let open = |seg, group| WalRecord::Open {
        seg,
        group,
        open_seq: 1_000,
        created_user_bytes: 0,
        created_ts_us: 0,
    };
    assert_rejected("replay_inconsistent", |s| {
        let (n, seg, chunk) = (s.next_seq, s.open, s.open_chunks);
        vec![
            ("open_bad_group", vec![open(s.free, 9)]),
            ("open_bad_segment", vec![open(total, 2)]),
            ("open_group_already_open", vec![open(s.free, 0)]),
            ("open_non_free_segment", vec![open(s.sealed, 2)]),
            ("append_bad_group", vec![append(5, 9)]),
            ("append_over_chunk_size", (0..17).map(|i| append(500 + i, 2)).collect()),
            ("flush_bad_group", vec![flush(n, seg, chunk, 9, vec![], 16)]),
            ("flush_bad_segment", vec![flush(n, total, 0, 0, vec![], 16)]),
            ("flush_wrong_sequence", vec![flush(n + 1, seg, chunk, 0, vec![], 16)]),
            ("flush_wrong_chunk", vec![flush(n, seg, chunk + 1, 0, vec![], 16)]),
            ("flush_short_chunk", vec![flush(n, seg, chunk, 0, vec![], 15)]),
            ("flush_segment_not_open", vec![flush(n, s.sealed, 0, 0, vec![], 16)]),
            ("flush_wrong_group", vec![flush(n, seg, chunk, 1, vec![], 16)]),
            (
                "flush_block_not_buffered",
                vec![flush(n, seg, chunk, 0, vec![slot(WalSlotKind::User, 200)], 15)],
            ),
            (
                "flush_shadow_of_durable_block",
                vec![flush(n, seg, chunk, 0, vec![slot(WalSlotKind::Shadow, 200)], 15)],
            ),
            ("gc_begin_bad_segment", vec![WalRecord::GcBegin { seg: total }]),
            ("gc_begin_open_segment", vec![WalRecord::GcBegin { seg }]),
            ("gc_begin_free_segment", vec![WalRecord::GcBegin { seg: s.free }]),
            (
                "gc_begin_twice",
                vec![WalRecord::GcBegin { seg: s.sealed }, WalRecord::GcBegin { seg: s.sealed }],
            ),
            ("reclaim_without_gc_begin", vec![WalRecord::Reclaim { seg: s.sealed }]),
            (
                "reclaim_with_live_blocks",
                vec![WalRecord::GcBegin { seg: s.sealed }, WalRecord::Reclaim { seg: s.sealed }],
            ),
        ]
    });
}

/// LBAs read from the log are checked before they index anything: an
/// overflowing trim range and a block at or past `user_blocks` are replay
/// errors, not an arithmetic overflow or an index resized to the bogus
/// LBA.
#[test]
fn replay_rejects_lbas_past_the_volume() {
    let user_blocks = replay_cfg().user_blocks;
    assert_rejected("replay_lba", |_| {
        vec![
            ("trim_overflows", vec![WalRecord::Trim { lba: u64::MAX, blocks: 2 }]),
            ("append_far_lba", vec![append(1 << 40, 0)]),
            ("append_at_volume_end", vec![append(user_blocks, 0)]),
        ]
    });
}

/// The live engine accepts a trim that runs past the volume's end, so
/// replay does too; it walks only the LBAs the index holds, so even a
/// four-billion-block range replays at once.
#[test]
fn replay_bounds_trims_by_the_written_lbas() {
    let user_blocks = replay_cfg().user_blocks;
    let base = tdir("replay_trim", 0);
    durable_prefix(&base);
    for (case, blocks) in [("trim_huge_range", u32::MAX), ("trim_past_volume", 2)] {
        let tail =
            [WalRecord::Trim { lba: user_blocks - 1, blocks }, WalRecord::Trim { lba: 0, blocks }];
        assert_eq!(recover_with_tail(&base, case, &tail), Ok(()), "{case}");
    }
    std::fs::remove_dir_all(&base).unwrap();
}

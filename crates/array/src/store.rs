//! Byte-faithful in-memory erasure-coded store.
//!
//! Used by the prototype (§4.4) and the fault-injection integration tests.
//! Keeps real chunk contents per device, generates the `m` parity chunks
//! when a stripe's last data column arrives, and serves reads through
//! Reed-Solomon decode while up to `m` members of a stripe are erased
//! (failed devices or latent sectors). `m = 1` reproduces the original
//! XOR RAID-5 store byte-for-byte, including every counter.
//!
//! The store is also *elastic*: [`InMemoryArray::add_device`] widens the
//! array online. Widening takes effect at the next stripe boundary and
//! opens a new **geometry epoch** — stripes written earlier keep their
//! original `k + m` shape and decode with their original code, so no data
//! is restriped on the spot. (In the full system the log-structured GC
//! naturally migrates old segments into the new geometry as it rewrites
//! them; the epoch table is exactly the metadata that makes those old
//! stripes readable until then.)

use crate::config::ArrayConfig;
use crate::counters::{ArrayStats, DeviceCounters};
use crate::crc;
use crate::error::ArrayError;
use crate::fault::{
    ArrayHealth, DiskState, FaultPlan, ReadMode, ReadOutcome, RebuildProgress, ScrubProgress,
    ScrubStep,
};
use crate::layout::{ChunkLocation, StripeLayout};
use crate::rs::ReedSolomon;
use crate::sink::{ArraySink, ChunkFlush};
use bytes::{Bytes, BytesMut};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One geometry epoch: every stripe in `first_stripe..` (until the next
/// epoch) was written with this layout and code.
#[derive(Debug, Clone)]
struct Epoch {
    /// First chunk sequence number written under this geometry.
    first_seq: u64,
    /// First stripe index written under this geometry.
    first_stripe: u64,
    layout: StripeLayout,
    code: ReedSolomon,
}

impl Epoch {
    /// Decode the chunk `device` holds in `stripe` from `survivors`
    /// (`(shard, chunk)` pairs, at least `k`). The chunk is built in the
    /// buffer that is returned: a produced chunk is never copied.
    fn recover(&self, survivors: &[(usize, &[u8])], stripe: u64, device: usize) -> Option<Bytes> {
        let mut out = BytesMut::zeroed(self.layout.config().chunk_bytes as usize);
        self.code.recover_into(survivors, self.layout.shard_of(stripe, device), &mut out).ok()?;
        Some(out.freeze())
    }
}

/// A byte-level erasure-coded array held in memory.
#[derive(Debug)]
pub struct InMemoryArray {
    /// Geometry epochs, oldest first. The last entry is the geometry new
    /// writes use; [`Self::cfg`] mirrors its config.
    epochs: Vec<Epoch>,
    cfg: ArrayConfig,
    /// Devices added mid-stripe; the epoch rolls when the stripe closes.
    pending_devices: usize,
    stats: ArrayStats,
    next_chunk_seq: u64,
    /// Device id → (stripe → chunk contents). Sparse: only written stripes
    /// are present.
    devices: Vec<HashMap<u64, Bytes>>,
    /// Streaming parity accumulators (one per parity row) for the stripe
    /// currently being filled; empty between stripes. Each arriving column
    /// is folded in via the code's generator coefficients, so parity work
    /// is spread across the arriving columns and nothing buffers the whole
    /// stripe. At stripe close each accumulator *is* the stored parity
    /// chunk (frozen, not copied).
    parity_acc: Vec<BytesMut>,
    /// Data columns accepted into the open stripe so far.
    open_columns: usize,
    /// Shared zero-filled chunk body for the accounting-only write path;
    /// cloning `Bytes` is a refcount bump, not a 64 KiB memset.
    zero_chunk: Bytes,
    /// Devices marked failed; reads to them decode from survivors.
    failed: Vec<bool>,
    /// Deterministic fault schedule (empty by default).
    plan: FaultPlan,
    /// In-progress rebuild: target device and the stripe worklist,
    /// most-exposed stripes first.
    rebuild_target: Option<usize>,
    rebuild_stripes: Vec<u64>,
    rebuild_cursor: usize,
    /// In-progress proactive drain (planned removal) and its worklist.
    draining: Option<usize>,
    drain_worklist: Vec<u64>,
    drain_cursor: usize,
    /// Device id → (stripe → CRC32C recorded when the chunk was written).
    /// Survives device failure and rebuild: it defines what the chunk's
    /// contents *should* be, independent of the media holding them.
    checksums: Vec<HashMap<u64, u32>>,
    /// (device, stripe) → op counter at injection, for detection latency.
    corruption_injected_at: HashMap<(usize, u64), u64>,
    /// Chunks already reported unrecoverable (so a scrub pass does not
    /// re-count them every revisit).
    known_bad: BTreeSet<(usize, u64)>,
    /// Sorted stripe worklist of the current scrub pass.
    scrub_worklist: Vec<u64>,
    scrub_cursor: usize,
}

impl InMemoryArray {
    /// Create an empty array.
    pub fn new(cfg: ArrayConfig) -> Self {
        Self::with_fault_plan(cfg, FaultPlan::default())
    }

    /// Create an empty array driven by a fault schedule.
    pub fn with_fault_plan(cfg: ArrayConfig, plan: FaultPlan) -> Self {
        cfg.validate();
        Self {
            epochs: vec![Epoch {
                first_seq: 0,
                first_stripe: 0,
                layout: StripeLayout::new(cfg),
                code: ReedSolomon::new(cfg.data_columns(), cfg.parity_devices),
            }],
            cfg,
            pending_devices: 0,
            stats: ArrayStats::new(cfg.num_devices),
            next_chunk_seq: 0,
            devices: vec![HashMap::new(); cfg.num_devices],
            parity_acc: Vec::with_capacity(cfg.parity_devices),
            open_columns: 0,
            zero_chunk: BytesMut::zeroed(cfg.chunk_bytes as usize).freeze(),
            failed: vec![false; cfg.num_devices],
            plan,
            rebuild_target: None,
            rebuild_stripes: Vec::new(),
            rebuild_cursor: 0,
            draining: None,
            drain_worklist: Vec::new(),
            drain_cursor: 0,
            checksums: vec![HashMap::new(); cfg.num_devices],
            corruption_injected_at: HashMap::new(),
            known_bad: BTreeSet::new(),
            scrub_worklist: Vec::new(),
            scrub_cursor: 0,
        }
    }

    /// The fault plan's current state.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Mutable fault plan, for injecting faults mid-run.
    pub fn plan_mut(&mut self) -> &mut FaultPlan {
        &mut self.plan
    }

    /// The epoch governing `stripe`.
    fn epoch_for_stripe(&self, stripe: u64) -> &Epoch {
        self.epochs.iter().rev().find(|e| e.first_stripe <= stripe).unwrap_or(&self.epochs[0])
    }

    /// Add a fresh, empty device to the array. The widened geometry (one
    /// more data column, same parity count) takes effect at the next
    /// stripe boundary; stripes already written keep their original shape
    /// and remain readable through the epoch table. Returns the new
    /// device's id.
    pub fn add_device(&mut self) -> usize {
        let id = self.devices.len();
        assert!(id < 256, "GF(256) limits the array to 256 devices");
        self.devices.push(HashMap::new());
        self.checksums.push(HashMap::new());
        self.failed.push(false);
        self.stats.devices.push(DeviceCounters::default());
        self.pending_devices += 1;
        if self.open_columns == 0 {
            self.roll_epoch();
        }
        id
    }

    /// Open a new geometry epoch covering all member devices. Must be
    /// called at a stripe boundary.
    fn roll_epoch(&mut self) {
        debug_assert_eq!(self.open_columns, 0, "epochs roll at stripe boundaries");
        if self.pending_devices == 0 {
            return;
        }
        let (replace_last, first_stripe) = {
            let last = self.epochs.last().expect("at least one epoch");
            if last.first_seq == self.next_chunk_seq {
                // Nothing written under the previous geometry yet: replace
                // it instead of stacking an empty epoch.
                (true, last.first_stripe)
            } else {
                let k = last.layout.config().data_columns() as u64;
                debug_assert_eq!((self.next_chunk_seq - last.first_seq) % k, 0);
                (false, last.first_stripe + (self.next_chunk_seq - last.first_seq) / k)
            }
        };
        if replace_last {
            self.epochs.pop();
        }
        let cfg = ArrayConfig::with_parity(
            self.devices.len(),
            self.cfg.parity_devices,
            self.cfg.chunk_bytes,
        );
        self.cfg = cfg;
        self.epochs.push(Epoch {
            first_seq: self.next_chunk_seq,
            first_stripe,
            layout: StripeLayout::new(cfg),
            code: ReedSolomon::new(cfg.data_columns(), cfg.parity_devices),
        });
        self.pending_devices = 0;
    }

    /// Write one chunk of real bytes; returns its location. The caller is
    /// responsible for zero-padding — `data.len()` must equal the chunk
    /// size. `flush` carries the accounting breakdown of the same chunk.
    pub fn write_chunk_bytes(&mut self, data: Bytes, flush: ChunkFlush) -> ChunkLocation {
        let cfg = self.cfg;
        assert_eq!(data.len() as u64, cfg.chunk_bytes, "sub-chunk write reached the array");
        assert_eq!(flush.total_bytes(), cfg.chunk_bytes, "flush accounting mismatch");

        for d in self.plan.record_op() {
            if d < self.failed.len() {
                self.failed[d] = true;
            }
        }
        for (d, s) in self.plan.take_due_corruptions() {
            self.inject_corruption(d, s);
        }
        let ei = self.epochs.len() - 1;
        let (loc, k) = {
            let ep = &self.epochs[ei];
            let k = ep.layout.config().data_columns();
            let local = self.next_chunk_seq - ep.first_seq;
            let stripe = ep.first_stripe + local / k as u64;
            (ep.layout.locate_at(stripe, (local % k as u64) as usize), k)
        };
        self.next_chunk_seq += 1;

        // A rewrite refreshes the chunk's media, clearing any latent error.
        self.plan.clear_latent(loc.device, loc.stripe);
        self.checksums[loc.device].insert(loc.stripe, crc::crc32c(&data));
        self.corruption_injected_at.remove(&(loc.device, loc.stripe));
        self.known_bad.remove(&(loc.device, loc.stripe));
        self.devices[loc.device].insert(loc.stripe, data.clone());
        let dev = &mut self.stats.devices[loc.device];
        dev.data_bytes += flush.payload_bytes();
        dev.pad_bytes += flush.pad_bytes;
        dev.chunk_writes += 1;
        if flush.pad_bytes > 0 {
            self.stats.padded_chunks += 1;
        } else {
            self.stats.full_chunks += 1;
        }

        if self.open_columns == 0 {
            // Zero-seed the m accumulators; row 0 of the code is all ones,
            // so for m = 1 this is exactly the historical parity seed copy.
            let rows = 0..cfg.parity_devices;
            self.parity_acc.extend(rows.map(|_| BytesMut::zeroed(cfg.chunk_bytes as usize)));
            self.stats.copy_bytes += cfg.parity_devices as u64 * cfg.chunk_bytes;
        }
        self.epochs[ei].code.accumulate(&mut self.parity_acc, loc.column, &data);
        self.open_columns += 1;
        if self.open_columns == k {
            for (j, acc) in self.parity_acc.drain(..).enumerate() {
                let parity_chunk = acc.freeze();
                let pdev = self.epochs[ei].layout.parity_device_j(loc.stripe, j);
                self.plan.clear_latent(pdev, loc.stripe);
                self.checksums[pdev].insert(loc.stripe, crc::crc32c(&parity_chunk));
                self.corruption_injected_at.remove(&(pdev, loc.stripe));
                self.known_bad.remove(&(pdev, loc.stripe));
                self.devices[pdev].insert(loc.stripe, parity_chunk);
                let p = &mut self.stats.devices[pdev];
                p.parity_bytes += cfg.chunk_bytes;
                p.chunk_writes += 1;
            }
            self.stats.stripes_completed += 1;
            self.open_columns = 0;
            if self.pending_devices > 0 {
                self.roll_epoch();
            }
        }
        loc
    }

    /// Read the chunk at a location previously returned by
    /// [`Self::write_chunk_bytes`]. If the owning device has failed, the
    /// chunk is decoded from the stripe's survivors (requires at least `k`
    /// of its members). Returns `None` for never-written or unrecoverable
    /// locations.
    pub fn read_chunk(&self, loc: ChunkLocation) -> Option<Bytes> {
        if !self.failed[loc.device] {
            return self.devices[loc.device].get(&loc.stripe).cloned();
        }
        // Degraded read: decode from the stripe's surviving members.
        let ep = self.epoch_for_stripe(loc.stripe);
        let n = ep.layout.config().num_devices;
        let k = ep.layout.config().data_columns();
        let mut survivors: Vec<(usize, &[u8])> = Vec::with_capacity(n - 1);
        for dev in 0..n {
            if dev == loc.device || self.failed[dev] {
                continue;
            }
            if let Some(b) = self.devices[dev].get(&loc.stripe) {
                survivors.push((ep.layout.shard_of(loc.stripe, dev), b.as_ref()));
            }
        }
        if survivors.len() < k {
            return None; // erasures exceed the code's budget (or stripe never closed)
        }
        ep.recover(&survivors, loc.stripe, loc.device)
    }

    /// Fallible read with fault injection, verify-on-read, and
    /// degraded-read accounting: consults the fault plan (transient
    /// errors, latent sectors, scheduled failures and corruptions),
    /// checks every returned chunk against its stored CRC32C, repairs
    /// checksum mismatches in place from stripe survivors, serves reads
    /// on erased members by decode as long as no more than `m` members of
    /// the stripe are erased, and counts the traffic in [`ArrayStats`].
    pub fn try_read_chunk(&mut self, loc: ChunkLocation) -> Result<(Bytes, ReadMode), ArrayError> {
        for d in self.plan.record_op() {
            if d < self.failed.len() {
                self.failed[d] = true;
            }
        }
        for (d, s) in self.plan.take_due_corruptions() {
            self.inject_corruption(d, s);
        }
        if self.plan.transient_read_fires() {
            return Err(ArrayError::TransientRead { loc });
        }
        let chunk_bytes = self.cfg.chunk_bytes;
        let direct_ok = !self.failed[loc.device] && !self.plan.is_latent(loc.device, loc.stripe);
        if direct_ok {
            let bytes = self.devices[loc.device]
                .get(&loc.stripe)
                .cloned()
                .ok_or(ArrayError::MissingChunk { loc })?;
            if self.verifies(loc.device, loc.stripe, &bytes) {
                return Ok((bytes, ReadMode::Normal));
            }
            // Checksum mismatch: parity-guided repair from survivors.
            self.note_detection(loc.device, loc.stripe);
            return match self.try_repair(loc.device, loc.stripe) {
                Some((healed, _survivors)) => {
                    self.devices[loc.device].insert(loc.stripe, healed.clone());
                    self.known_bad.remove(&(loc.device, loc.stripe));
                    self.stats.corruptions_healed += 1;
                    self.stats.heal_write_bytes += chunk_bytes;
                    Ok((healed, ReadMode::Healed))
                }
                None => {
                    self.stats.corruptions_unrecoverable += 1;
                    self.known_bad.insert((loc.device, loc.stripe));
                    Err(ArrayError::ChecksumMismatch { loc })
                }
            };
        }
        // Degraded read: decode the chunk from the stripe's other members,
        // verifying every member read — a corrupt shard fed to the decoder
        // would silently produce garbage.
        let layout = self.epoch_for_stripe(loc.stripe).layout;
        let n = layout.config().num_devices;
        let k = layout.config().data_columns();
        let m = layout.config().parity_devices;
        if loc.device >= n {
            return Err(ArrayError::MissingChunk { loc });
        }
        let erased: Vec<usize> =
            (0..n).filter(|&d| self.failed[d] || self.plan.is_latent(d, loc.stripe)).collect();
        if erased.len() > m {
            return Err(ArrayError::DoubleFault { loc });
        }
        let mut good: Vec<usize> = Vec::with_capacity(n - 1);
        let mut corrupt: Vec<usize> = Vec::new();
        for dev in 0..n {
            if erased.contains(&dev) {
                continue;
            }
            match self.devices[dev].get(&loc.stripe) {
                Some(b) => {
                    let stored = self.checksums[dev].get(&loc.stripe).copied();
                    if stored.is_some_and(|sum| crc::crc32c(b) != sum) {
                        corrupt.push(dev);
                    } else {
                        good.push(dev);
                    }
                }
                None => return Err(ArrayError::Unreconstructable { loc }),
            }
        }
        if good.len() < k {
            if let Some(&bad_dev) = corrupt.first() {
                // Honest repair is impossible: a silent corruption has
                // eaten into the erasure budget. Fatal, as under RAID-5.
                let bad = ChunkLocation { stripe: loc.stripe, device: bad_dev, column: 0 };
                self.note_detection(bad_dev, loc.stripe);
                self.stats.corruptions_unrecoverable += 1;
                self.known_bad.insert((bad_dev, loc.stripe));
                return Err(ArrayError::ChecksumMismatch { loc: bad });
            }
            return Err(ArrayError::Unreconstructable { loc });
        }
        let shards: Vec<(usize, Bytes)> = good
            .iter()
            .map(|&d| (layout.shard_of(loc.stripe, d), self.devices[d][&loc.stripe].clone()))
            .collect();
        let refs: Vec<(usize, &[u8])> = shards.iter().map(|(s, b)| (*s, b.as_ref())).collect();
        // With spare redundancy (m ≥ 2) a corrupt member alongside the
        // erasure can still be healed from the honest shards.
        for &bad_dev in &corrupt {
            let bad = ChunkLocation { stripe: loc.stripe, device: bad_dev, column: 0 };
            let healed = self
                .epoch_for_stripe(loc.stripe)
                .recover(&refs, loc.stripe, bad_dev)
                .filter(|healed| self.verifies(bad_dev, loc.stripe, healed));
            self.note_detection(bad_dev, loc.stripe);
            let Some(healed) = healed else {
                self.stats.corruptions_unrecoverable += 1;
                self.known_bad.insert((bad_dev, loc.stripe));
                return Err(ArrayError::ChecksumMismatch { loc: bad });
            };
            self.devices[bad_dev].insert(loc.stripe, healed);
            self.known_bad.remove(&(bad_dev, loc.stripe));
            self.stats.corruptions_healed += 1;
            self.stats.heal_write_bytes += chunk_bytes;
        }
        let bytes = self
            .epoch_for_stripe(loc.stripe)
            .recover(&refs, loc.stripe, loc.device)
            .ok_or(ArrayError::Unreconstructable { loc })?;
        if !self.verifies(loc.device, loc.stripe, &bytes) {
            self.note_detection(loc.device, loc.stripe);
            self.stats.corruptions_unrecoverable += 1;
            self.known_bad.insert((loc.device, loc.stripe));
            return Err(ArrayError::ChecksumMismatch { loc });
        }
        self.stats.degraded_reads += 1;
        self.stats.reconstructed_bytes += k as u64 * chunk_bytes;
        Ok((bytes, ReadMode::Reconstructed))
    }

    /// Does `bytes` match the CRC recorded for (device, stripe)? Chunks
    /// written before checksumming existed (none in practice) pass.
    fn verifies(&self, device: usize, stripe: u64, bytes: &[u8]) -> bool {
        match self.checksums[device].get(&stripe) {
            Some(&sum) => crc::crc32c(bytes) == sum,
            None => true,
        }
    }

    /// Account one detection: bump the counter and, if the corruption was
    /// injected by the plan, record ops elapsed since injection.
    fn note_detection(&mut self, device: usize, stripe: u64) {
        self.stats.corruptions_detected += 1;
        if let Some(at) = self.corruption_injected_at.remove(&(device, stripe)) {
            self.stats.detection_latency_ops += self.plan.ops().saturating_sub(at);
        }
    }

    /// Rebuild the chunk at (device, stripe) from its stripe survivors,
    /// skipping members that are failed, latent, missing, or fail their
    /// own CRC, and re-verifying the decode against the target's stored
    /// CRC. Returns the verified bytes and the number of shards read, or
    /// `None` when fewer than `k` honest members remain.
    fn try_repair(&self, device: usize, stripe: u64) -> Option<(Bytes, usize)> {
        let expect = *self.checksums[device].get(&stripe)?;
        let ep = self.epoch_for_stripe(stripe);
        let n = ep.layout.config().num_devices;
        let k = ep.layout.config().data_columns();
        let mut survivors: Vec<(usize, &[u8])> = Vec::with_capacity(n - 1);
        for dev in 0..n {
            if dev == device || self.failed[dev] || self.plan.is_latent(dev, stripe) {
                continue;
            }
            let Some(b) = self.devices[dev].get(&stripe) else {
                continue;
            };
            if let Some(&sum) = self.checksums[dev].get(&stripe) {
                if crc::crc32c(b) != sum {
                    continue; // member is silently corrupt too
                }
            }
            survivors.push((ep.layout.shard_of(stripe, dev), b.as_ref()));
        }
        if survivors.len() < k {
            return None;
        }
        survivors.truncate(k);
        let out = ep.recover(&survivors, stripe, device)?;
        (crc::crc32c(&out) == expect).then_some((out, k))
    }

    /// Silently flip bytes in the stored chunk at (device, stripe) — the
    /// device keeps serving it as if nothing happened; only the checksum
    /// can tell. Returns false if the chunk was never written.
    pub fn inject_corruption(&mut self, device: usize, stripe: u64) -> bool {
        let Some(bytes) = self.devices[device].get(&stripe) else {
            return false;
        };
        let mut v = BytesMut::zeroed(bytes.len());
        v.copy_from_slice(bytes);
        let mid = v.len() / 2;
        v[0] ^= 0xA5;
        v[mid] ^= 0x5A;
        self.devices[device].insert(stripe, v.freeze());
        self.corruption_injected_at.insert((device, stripe), self.plan.ops());
        true
    }

    /// Injected corruptions not yet detected.
    pub fn outstanding_corruptions(&self) -> usize {
        self.corruption_injected_at.len()
    }

    /// Mark a device failed (degraded mode).
    pub fn fail_device(&mut self, device: usize) {
        self.failed[device] = true;
    }

    /// Current health: rebuilding beats degraded beats healthy. (A drain
    /// leaves the array healthy — the device still serves reads.)
    pub fn health_view(&self) -> ArrayHealth {
        ArrayHealth::from_disk_states(&self.disk_states())
    }

    /// Per-device lifecycle states.
    pub fn disk_states(&self) -> Vec<DiskState> {
        (0..self.devices.len())
            .map(|d| {
                if self.rebuild_target == Some(d) {
                    DiskState::Rebuilding
                } else if self.failed[d] {
                    DiskState::Failed
                } else if self.draining == Some(d) {
                    DiskState::Draining
                } else {
                    DiskState::Healthy
                }
            })
            .collect()
    }

    /// Begin an incremental rebuild of `device` onto a fresh spare. The
    /// worklist is every stripe any survivor holds, **most-exposed stripes
    /// first**: a stripe that already carries a latent, corrupt, or
    /// condemned chunk on another device is one fault from data loss, so
    /// the sweep closes those windows before touching clean stripes.
    /// Incomplete stripes are skipped by the sweep (their chunks are lost
    /// — no parity was written). Writes that arrive while rebuilding go to
    /// the spare directly and are preserved. Errors when the remaining
    /// failed devices would exceed the code's erasure budget.
    pub fn start_rebuild(&mut self, device: usize) -> Result<RebuildProgress, ArrayError> {
        let m = self.cfg.parity_devices;
        let others: Vec<usize> = self
            .failed
            .iter()
            .enumerate()
            .filter(|&(d, &f)| f && d != device)
            .map(|(d, _)| d)
            .collect();
        if others.len() >= m {
            let loc = ChunkLocation { stripe: 0, device: others[m - 1], column: 0 };
            return Err(ArrayError::DoubleFault { loc });
        }
        self.failed[device] = true; // replacing a healthy device drops it first
        let mut stripes: Vec<u64> = self
            .devices
            .iter()
            .enumerate()
            .filter(|&(d, _)| d != device)
            .flat_map(|(_, m)| m.keys().copied())
            .collect();
        stripes.sort_unstable();
        stripes.dedup();
        let mut exposure: BTreeMap<u64, usize> = BTreeMap::new();
        for &(d, s) in self.corruption_injected_at.keys() {
            if d != device {
                *exposure.entry(s).or_default() += 1;
            }
        }
        for &(d, s) in &self.known_bad {
            if d != device {
                *exposure.entry(s).or_default() += 1;
            }
        }
        for &(d, s) in self.plan.latent_entries() {
            if d != device {
                *exposure.entry(s).or_default() += 1;
            }
        }
        stripes.sort_by_key(|s| (Reverse(exposure.get(s).copied().unwrap_or(0)), *s));
        self.devices[device].clear(); // the spare starts empty
        self.rebuild_target = Some(device);
        self.rebuild_stripes = stripes;
        self.rebuild_cursor = 0;
        Ok(self.rebuild_progress())
    }

    /// Advance the rebuild sweep by at most `max_stripes` stripes. Each
    /// rebuilt chunk reads the stripe's present members and writes one
    /// chunk to the spare, charged to the rebuild counters. Completing the
    /// sweep returns the device to service.
    pub fn rebuild_step(&mut self, max_stripes: usize) -> Result<RebuildProgress, ArrayError> {
        let device = self.rebuild_target.ok_or(ArrayError::NotDegraded)?;
        let chunk_bytes = self.cfg.chunk_bytes;
        let end = self.rebuild_cursor.saturating_add(max_stripes).min(self.rebuild_stripes.len());
        for i in self.rebuild_cursor..end {
            let stripe = self.rebuild_stripes[i];
            if self.devices[device].contains_key(&stripe) {
                continue; // written to the spare while rebuilding
            }
            let layout = self.epoch_for_stripe(stripe).layout;
            let n = layout.config().num_devices;
            let k = layout.config().data_columns();
            if device >= n {
                continue; // stripe predates the device: it holds nothing there
            }
            let mut good: Vec<(usize, Bytes)> = Vec::with_capacity(n - 1);
            let mut gathered = 0usize;
            let mut complete = true;
            for dev in 0..n {
                if dev == device || self.failed[dev] {
                    continue;
                }
                match self.devices[dev].get(&stripe) {
                    Some(b) => {
                        gathered += 1;
                        let ok = match self.checksums[dev].get(&stripe) {
                            Some(&sum) => crc::crc32c(b) == sum,
                            None => true,
                        };
                        if ok {
                            good.push((layout.shard_of(stripe, dev), b.clone()));
                        }
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                continue; // stripe never closed: chunk unrecoverable
            }
            let rebuilt = if good.len() < k {
                None
            } else {
                let refs: Vec<(usize, &[u8])> =
                    good.iter().map(|(s, b)| (*s, b.as_ref())).collect();
                self.epoch_for_stripe(stripe)
                    .recover(&refs, stripe, device)
                    .filter(|b| self.verifies(device, stripe, b))
            };
            let Some(rebuilt) = rebuilt else {
                // A silently corrupt member poisoned the decode; writing it
                // would launder bad data into a "fresh" spare.
                self.note_detection(device, stripe);
                self.stats.corruptions_unrecoverable += 1;
                self.known_bad.insert((device, stripe));
                self.stats.rebuild_read_bytes += gathered as u64 * chunk_bytes;
                continue;
            };
            self.devices[device].insert(stripe, rebuilt);
            self.plan.clear_latent(device, stripe);
            self.known_bad.remove(&(device, stripe));
            self.stats.rebuild_read_bytes += gathered as u64 * chunk_bytes;
            self.stats.rebuild_write_bytes += chunk_bytes;
            self.stats.rebuilt_chunks += 1;
        }
        self.rebuild_cursor = end;
        if self.rebuild_cursor == self.rebuild_stripes.len() {
            self.rebuild_target = None;
            self.rebuild_stripes.clear();
            self.rebuild_cursor = 0;
            self.failed[device] = false;
        }
        Ok(self.rebuild_progress())
    }

    /// Current sweep progress.
    pub fn rebuild_progress(&self) -> RebuildProgress {
        RebuildProgress {
            stripes_done: self.rebuild_cursor as u64,
            stripes_total: self.rebuild_stripes.len() as u64,
            complete: self.rebuild_target.is_none(),
        }
    }

    /// Restore a previously failed device in one sweep, rebuilding every
    /// chunk it held from the survivors. Returns the number of chunks
    /// rebuilt, or `None` if the erasure budget is already spent on other
    /// failed devices.
    pub fn rebuild_device(&mut self, device: usize) -> Option<usize> {
        let before = self.stats.rebuilt_chunks;
        self.start_rebuild(device).ok()?;
        while self.rebuild_target.is_some() {
            self.rebuild_step(usize::MAX).ok()?;
        }
        Some((self.stats.rebuilt_chunks - before) as usize)
    }

    /// Begin proactively draining `device` (planned removal). Unlike a
    /// rebuild this spends no redundancy: the device keeps serving reads
    /// while a paced sweep copies its chunks to a replacement, healing
    /// latent or corrupt chunks on the way out. Panics if the device is
    /// failed or another drain is in flight — drains are planned
    /// operations issued by a scheduler that can see [`Self::disk_states`].
    pub fn start_drain(&mut self, device: usize) -> RebuildProgress {
        assert!(device < self.devices.len(), "no such device");
        assert!(!self.failed[device], "cannot drain a failed device");
        assert!(self.draining.is_none(), "one drain at a time");
        let mut stripes: Vec<u64> = self.devices[device].keys().copied().collect();
        stripes.sort_unstable();
        self.draining = Some(device);
        self.drain_worklist = stripes;
        self.drain_cursor = 0;
        self.drain_progress()
    }

    /// Advance the drain sweep by at most `max_stripes` stripes. Each
    /// stripe copies the device's one chunk (read + write, no decode when
    /// the chunk is clean) to the replacement; latent or corrupt chunks
    /// are repaired from stripe survivors first so the replacement starts
    /// pristine. Completing the sweep releases the device.
    pub fn drain_step(&mut self, max_stripes: usize) -> RebuildProgress {
        let Some(device) = self.draining else {
            return self.drain_progress();
        };
        let chunk_bytes = self.cfg.chunk_bytes;
        let end = self.drain_cursor.saturating_add(max_stripes).min(self.drain_worklist.len());
        for i in self.drain_cursor..end {
            let stripe = self.drain_worklist[i];
            let latent = self.plan.is_latent(device, stripe);
            let clean = !latent
                && self.devices[device]
                    .get(&stripe)
                    .is_some_and(|b| self.verifies(device, stripe, b));
            if !clean {
                match self.try_repair(device, stripe) {
                    Some((healed, shards_read)) => {
                        self.devices[device].insert(stripe, healed);
                        self.known_bad.remove(&(device, stripe));
                        self.stats.drain_read_bytes += shards_read as u64 * chunk_bytes;
                        if latent {
                            self.stats.scrub_latent_repaired += 1;
                        } else {
                            self.note_detection(device, stripe);
                            self.stats.corruptions_healed += 1;
                        }
                        self.stats.heal_write_bytes += chunk_bytes;
                    }
                    None => {
                        if !latent {
                            self.note_detection(device, stripe);
                        }
                        self.stats.corruptions_unrecoverable += 1;
                        self.known_bad.insert((device, stripe));
                    }
                }
            }
            self.plan.clear_latent(device, stripe);
            self.stats.drain_read_bytes += chunk_bytes;
            self.stats.drain_write_bytes += chunk_bytes;
            self.stats.drained_chunks += 1;
        }
        self.drain_cursor = end;
        if self.drain_cursor == self.drain_worklist.len() {
            self.draining = None;
            self.drain_worklist.clear();
            self.drain_cursor = 0;
        }
        self.drain_progress()
    }

    /// Current drain-sweep progress.
    pub fn drain_progress(&self) -> RebuildProgress {
        RebuildProgress {
            stripes_done: self.drain_cursor as u64,
            stripes_total: self.drain_worklist.len() as u64,
            complete: self.draining.is_none(),
        }
    }

    /// Number of chunks appended so far.
    pub fn chunks_written(&self) -> u64 {
        self.next_chunk_seq
    }

    /// Advance the background scrub by at most `max_stripes` stripes.
    ///
    /// A pass walks every written stripe in order, re-reads each chunk
    /// (data and parity alike) on live devices, and verifies it against
    /// its stored CRC32C. Mismatches are repaired from stripe survivors
    /// and rewritten in place; latent sector errors are rewritten before
    /// they can eat into the erasure budget. The scrub yields to an
    /// in-flight rebuild and restarts a fresh pass after the previous one
    /// completes, so it runs continuously when pumped.
    pub fn scrub_step(&mut self, max_stripes: usize) -> ScrubStep {
        if self.rebuild_target.is_some() {
            return ScrubStep::paused();
        }
        if self.scrub_cursor >= self.scrub_worklist.len() {
            let mut stripes: Vec<u64> =
                self.devices.iter().flat_map(|m| m.keys().copied()).collect();
            stripes.sort_unstable();
            stripes.dedup();
            self.scrub_worklist = stripes;
            self.scrub_cursor = 0;
        }
        let chunk_bytes = self.cfg.chunk_bytes;
        let num_devices = self.devices.len();
        let mut step = ScrubStep::default();
        let end = self.scrub_cursor.saturating_add(max_stripes).min(self.scrub_worklist.len());
        for i in self.scrub_cursor..end {
            let stripe = self.scrub_worklist[i];
            step.stripes_scrubbed += 1;
            for device in 0..num_devices {
                if self.failed[device]
                    || self.known_bad.contains(&(device, stripe))
                    || !self.devices[device].contains_key(&stripe)
                {
                    continue;
                }
                if self.plan.is_latent(device, stripe) {
                    // Unreadable media with intact redundancy: rewrite the
                    // chunk from survivors while we still can.
                    if let Some((rebuilt, n)) = self.try_repair(device, stripe) {
                        self.devices[device].insert(stripe, rebuilt);
                        self.plan.clear_latent(device, stripe);
                        step.latent_repaired += 1;
                        step.read_bytes += n as u64 * chunk_bytes;
                        step.heal_write_bytes += chunk_bytes;
                    }
                    continue;
                }
                step.chunks_scrubbed += 1;
                step.read_bytes += chunk_bytes;
                let clean = {
                    let bytes = &self.devices[device][&stripe];
                    match self.checksums[device].get(&stripe) {
                        Some(&sum) => crc::crc32c(bytes) == sum,
                        None => true,
                    }
                };
                if clean {
                    continue;
                }
                step.detected += 1;
                if let Some(at) = self.corruption_injected_at.remove(&(device, stripe)) {
                    step.detection_latency_ops += self.plan.ops().saturating_sub(at);
                }
                match self.try_repair(device, stripe) {
                    Some((rebuilt, n)) => {
                        self.devices[device].insert(stripe, rebuilt);
                        step.healed += 1;
                        step.read_bytes += n as u64 * chunk_bytes;
                        step.heal_write_bytes += chunk_bytes;
                    }
                    None => {
                        step.unrecoverable += 1;
                        self.known_bad.insert((device, stripe));
                    }
                }
            }
        }
        self.scrub_cursor = end;
        step.pass_complete =
            !self.scrub_worklist.is_empty() && self.scrub_cursor >= self.scrub_worklist.len();
        self.stats.fold_scrub_step(&step);
        step
    }

    /// Current scrub-pass progress.
    pub fn scrub_progress(&self) -> ScrubProgress {
        ScrubProgress {
            stripes_done: self.scrub_cursor as u64,
            stripes_total: self.scrub_worklist.len() as u64,
            complete: self.scrub_cursor >= self.scrub_worklist.len(),
        }
    }
}

impl ArraySink for InMemoryArray {
    fn write_chunk(&mut self, flush: ChunkFlush) -> ChunkLocation {
        // Accounting-only path: every chunk body is the shared zero chunk.
        // The prototype uses `write_chunk_bytes` with real payloads instead.
        let body = self.zero_chunk.clone();
        self.write_chunk_bytes(body, flush)
    }

    fn write_chunk_payload(&mut self, flush: ChunkFlush, payload: &[u8]) -> ChunkLocation {
        // The ownership boundary: stored chunks must outlive the caller's
        // buffer, so the borrowed payload is copied exactly once, here.
        self.stats.copy_bytes += payload.len() as u64;
        self.write_chunk_bytes(Bytes::copy_from_slice(payload), flush)
    }

    fn config(&self) -> &ArrayConfig {
        &self.cfg
    }

    fn stats(&self) -> &ArrayStats {
        &self.stats
    }

    fn health(&self) -> ArrayHealth {
        self.health_view()
    }

    fn read_chunk_at(&mut self, loc: ChunkLocation) -> Result<ReadOutcome, ArrayError> {
        let chunk_bytes = self.cfg.chunk_bytes;
        let k = self.epoch_for_stripe(loc.stripe).layout.config().data_columns();
        self.try_read_chunk(loc).map(|(_, mode)| match mode {
            ReadMode::Normal => ReadOutcome::normal(chunk_bytes),
            ReadMode::Reconstructed => ReadOutcome::reconstructed(chunk_bytes, k),
            ReadMode::Healed => ReadOutcome::healed(chunk_bytes, k),
        })
    }

    fn scrub_step(&mut self, max_stripes: usize) -> Option<ScrubStep> {
        Some(InMemoryArray::scrub_step(self, max_stripes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parity;

    fn flush_full() -> ChunkFlush {
        ChunkFlush {
            user_bytes: 65536,
            gc_bytes: 0,
            shadow_bytes: 0,
            pad_bytes: 0,
            group: 0,
            seg: 0,
            chunk_in_seg: 0,
        }
    }

    fn body(seed: u8) -> Bytes {
        Bytes::from((0..65536).map(|i| seed.wrapping_add(i as u8)).collect::<Vec<u8>>())
    }

    fn raid6() -> ArrayConfig {
        ArrayConfig::with_parity(8, 2, 65536)
    }

    #[test]
    fn streaming_parity_matches_batch_parity() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let bodies: Vec<Bytes> = (0..3).map(body).collect();
        for b in &bodies {
            a.write_chunk_bytes(b.clone(), flush_full());
        }
        let pdev = a.epochs[0].layout.parity_device(0);
        let stored = a.devices[pdev][&0].clone();
        let refs: Vec<&[u8]> = bodies.iter().map(|b| b.as_ref()).collect();
        assert_eq!(stored.as_ref(), parity::compute_parity(&refs).as_slice());
    }

    #[test]
    fn multi_parity_streaming_matches_batch_encode() {
        let mut a = InMemoryArray::new(raid6());
        let bodies: Vec<Bytes> = (0..6).map(body).collect();
        for b in &bodies {
            a.write_chunk_bytes(b.clone(), flush_full());
        }
        let data: Vec<&[u8]> = bodies.iter().map(|b| b.as_ref()).collect();
        let parity = ReedSolomon::new(6, 2).encode(&data).unwrap();
        let layout = a.epochs[0].layout;
        for (j, expect) in parity.iter().enumerate() {
            let pdev = layout.parity_device_j(0, j);
            assert_eq!(a.devices[pdev][&0].as_ref(), expect.as_slice(), "parity row {j}");
        }
    }

    #[test]
    fn accounting_path_copies_only_the_parity_seed() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        for _ in 0..6 {
            a.write_chunk(flush_full());
        }
        // 6 chunks = 2 closed stripes; the shared zero chunk means the only
        // copies are the two parity-accumulator seeds.
        assert_eq!(a.stats().copy_bytes, 2 * 65536);
    }

    #[test]
    fn payload_write_is_copied_once_and_roundtrips() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let payload = body(42);
        let loc = a.write_chunk_payload(flush_full(), &payload);
        // One ownership-transfer copy plus the parity seed of a new stripe.
        assert_eq!(a.stats().copy_bytes, 2 * 65536);
        assert_eq!(a.read_chunk(loc).unwrap(), payload);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let loc = a.write_chunk_bytes(body(1), flush_full());
        assert_eq!(a.read_chunk(loc).unwrap(), body(1));
    }

    #[test]
    fn degraded_read_reconstructs() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        // Stripe 0 is complete; fail each data device in turn and re-read.
        for (i, loc) in locs.iter().enumerate() {
            let mut b = InMemoryArray::new(ArrayConfig::default());
            for j in 0..3 {
                b.write_chunk_bytes(body(j), flush_full());
            }
            b.fail_device(loc.device);
            assert_eq!(b.read_chunk(*loc).unwrap(), body(i as u8), "chunk {i}");
        }
    }

    #[test]
    fn double_fault_unrecoverable() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let loc = a.write_chunk_bytes(body(1), flush_full());
        for _ in 0..2 {
            a.write_chunk_bytes(body(9), flush_full());
        }
        a.fail_device(loc.device);
        a.fail_device((loc.device + 1) % 4);
        assert!(a.read_chunk(loc).is_none());
    }

    #[test]
    fn rebuild_restores_contents() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..6).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        let victim = locs[0].device;
        a.fail_device(victim);
        let rebuilt = a.rebuild_device(victim).unwrap();
        assert!(rebuilt > 0);
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), body(i as u8), "chunk {i}");
        }
    }

    #[test]
    fn rebuild_refuses_double_fault() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        for i in 0..3 {
            a.write_chunk_bytes(body(i), flush_full());
        }
        a.fail_device(0);
        a.fail_device(1);
        assert!(a.rebuild_device(0).is_none());
    }

    #[test]
    fn incomplete_stripe_degraded_read_fails_gracefully() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let loc = a.write_chunk_bytes(body(1), flush_full());
        // Stripe not complete: no parity yet.
        a.fail_device(loc.device);
        assert!(a.read_chunk(loc).is_none());
    }

    #[test]
    fn stats_match_counting_model() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        for _ in 0..6 {
            a.write_chunk(flush_full());
        }
        assert_eq!(a.stats().stripes_completed, 2);
        assert_eq!(a.stats().parity_bytes(), 2 * 65536);
        assert_eq!(a.stats().data_bytes(), 6 * 65536);
    }

    #[test]
    fn try_read_typed_errors() {
        use crate::error::ArrayError;
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let loc = a.write_chunk_bytes(body(1), flush_full());
        // Unwritten location.
        let missing = ChunkLocation { stripe: 99, device: 0, column: 0 };
        assert_eq!(a.try_read_chunk(missing), Err(ArrayError::MissingChunk { loc: missing }));
        // Failed device before the stripe closed.
        a.fail_device(loc.device);
        assert_eq!(a.try_read_chunk(loc), Err(ArrayError::Unreconstructable { loc }));
        // Second failure → double fault.
        a.fail_device((loc.device + 1) % 4);
        assert_eq!(a.try_read_chunk(loc), Err(ArrayError::DoubleFault { loc }));
    }

    #[test]
    fn try_read_degraded_accounts_reconstruction() {
        use crate::fault::ReadMode;
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        a.fail_device(locs[0].device);
        let (bytes, mode) = a.try_read_chunk(locs[0]).unwrap();
        assert_eq!(mode, ReadMode::Reconstructed);
        assert_eq!(bytes, body(0));
        assert_eq!(a.stats().degraded_reads, 1);
        assert_eq!(a.stats().reconstructed_bytes, 3 * 65536);
    }

    #[test]
    fn scheduled_failure_fires_on_write_path() {
        use crate::fault::ArrayHealth;
        let plan = FaultPlan::new(5).fail_device_at(2, 4);
        let mut a = InMemoryArray::with_fault_plan(ArrayConfig::default(), plan);
        for i in 0..3 {
            a.write_chunk_bytes(body(i), flush_full());
        }
        assert_eq!(a.health_view(), ArrayHealth::Healthy);
        a.write_chunk_bytes(body(9), flush_full()); // 4th op
        assert_eq!(a.health_view(), ArrayHealth::Degraded { device: 2 });
    }

    #[test]
    fn latent_sector_read_reconstructs() {
        use crate::fault::ReadMode;
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        let victim = locs[1];
        // Media degrades after the stripe was written.
        a.plan_mut().add_latent_sector(victim.device, victim.stripe);
        let (bytes, mode) = a.try_read_chunk(victim).unwrap();
        assert_eq!(mode, ReadMode::Reconstructed);
        assert_eq!(bytes, body(1));
        assert_eq!(a.stats().degraded_reads, 1);
        // A rewrite of the same (device, stripe) slot clears the error.
        a.plan_mut().clear_latent(victim.device, victim.stripe);
        let (_, mode) = a.try_read_chunk(victim).unwrap();
        assert_eq!(mode, ReadMode::Normal);
    }

    #[test]
    fn incremental_rebuild_steps_to_completion() {
        use crate::fault::ArrayHealth;
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..9).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        let victim = locs[0].device;
        a.fail_device(victim);
        let p = a.start_rebuild(victim).unwrap();
        assert!(!p.complete);
        assert_eq!(a.health_view(), ArrayHealth::Rebuilding { device: victim });
        let mut steps = 0;
        while !a.rebuild_step(1).unwrap().complete {
            steps += 1;
            assert!(steps < 100, "rebuild must terminate");
        }
        assert_eq!(a.health_view(), ArrayHealth::Healthy);
        assert!(a.stats().rebuilt_chunks > 0);
        assert_eq!(a.stats().rebuild_write_bytes, a.stats().rebuilt_chunks * 65536);
        assert_eq!(a.stats().rebuild_read_bytes, a.stats().rebuilt_chunks * 3 * 65536);
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), body(i as u8), "chunk {i}");
        }
    }

    #[test]
    fn writes_during_rebuild_land_on_spare_and_survive() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        let victim = locs[0].device;
        a.fail_device(victim);
        a.start_rebuild(victim).unwrap();
        // Write three more chunks mid-rebuild (one lands on the spare).
        let new_locs: Vec<_> =
            (10..13).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        while !a.rebuild_step(1).unwrap().complete {}
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), body(i as u8));
        }
        for (i, loc) in new_locs.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), body(10 + i as u8));
        }
    }

    #[test]
    fn sink_read_chunk_at_reports_reconstruction() {
        use crate::fault::ReadMode;
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        a.fail_device(locs[2].device);
        let out = a.read_chunk_at(locs[2]).unwrap();
        assert_eq!(out.mode, ReadMode::Reconstructed);
        assert_eq!(out.device_bytes_read, 3 * 65536);
    }

    #[test]
    fn corrupted_read_heals_in_place() {
        use crate::fault::ReadMode;
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        assert!(a.inject_corruption(locs[1].device, locs[1].stripe));
        let (bytes, mode) = a.try_read_chunk(locs[1]).unwrap();
        assert_eq!(mode, ReadMode::Healed);
        assert_eq!(bytes, body(1), "healed contents bit-identical to pre-corruption");
        assert_eq!(a.stats().corruptions_detected, 1);
        assert_eq!(a.stats().corruptions_healed, 1);
        assert_eq!(a.stats().heal_write_bytes, 65536);
        // The rewrite stuck: the next read is clean and direct.
        let (_, mode) = a.try_read_chunk(locs[1]).unwrap();
        assert_eq!(mode, ReadMode::Normal);
        assert_eq!(a.stats().corruptions_detected, 1, "no re-detection after heal");
    }

    #[test]
    fn corrupted_parity_healed_by_scrub() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        for i in 0..3 {
            a.write_chunk_bytes(body(i), flush_full());
        }
        let pdev = a.epochs[0].layout.parity_device(0);
        assert!(a.inject_corruption(pdev, 0));
        let step = a.scrub_step(usize::MAX);
        assert_eq!(step.detected, 1);
        assert_eq!(step.healed, 1);
        assert!(step.pass_complete);
        assert_eq!(a.outstanding_corruptions(), 0);
        // Parity is good again: a degraded read still reconstructs.
        let loc = ChunkLocation { stripe: 0, device: (pdev + 1) % 4, column: 0 };
        a.fail_device(loc.device);
        let got = a.read_chunk(loc).unwrap();
        assert_eq!(crc::crc32c(&got), a.checksums[loc.device][&0]);
    }

    #[test]
    fn corruption_plus_device_failure_is_unrecoverable() {
        use crate::error::ArrayError;
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        a.inject_corruption(locs[0].device, locs[0].stripe);
        a.fail_device(locs[1].device);
        // Direct read of the corrupt chunk: repair needs the failed member.
        let err = a.try_read_chunk(locs[0]).unwrap_err();
        assert!(matches!(err, ArrayError::ChecksumMismatch { .. }), "{err}");
        assert_eq!(a.stats().corruptions_unrecoverable, 1);
        // Degraded read of the failed member: corrupt survivor detected.
        let err = a.try_read_chunk(locs[1]).unwrap_err();
        assert!(matches!(err, ArrayError::ChecksumMismatch { .. }), "{err}");
    }

    #[test]
    fn scheduled_corruption_fires_and_latency_is_counted() {
        let plan = FaultPlan::new(3).with_corruption_at(3, 0, 0);
        let mut a = InMemoryArray::with_fault_plan(ArrayConfig::default(), plan);
        let locs: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        assert_eq!(a.outstanding_corruptions(), 1, "fired on the 3rd op");
        let victim = locs.iter().find(|l| l.device == 0).unwrap();
        // Two clean reads of other chunks, then hit the corrupt one.
        for loc in locs.iter().filter(|l| l.device != 0) {
            a.try_read_chunk(*loc).unwrap();
        }
        let (bytes, mode) = a.try_read_chunk(*victim).unwrap();
        assert_eq!(mode, ReadMode::Healed);
        assert_eq!(crc::crc32c(&bytes), a.checksums[victim.device][&victim.stripe]);
        // Injected at op 3, detected at op 6 (3 writes + 3 reads).
        assert_eq!(a.stats().detection_latency_ops, 3);
        assert_eq!(a.stats().mean_detection_latency_ops(), 3.0);
    }

    #[test]
    fn scrub_repairs_latent_sectors() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        a.plan_mut().add_latent_sector(locs[0].device, locs[0].stripe);
        let step = a.scrub_step(usize::MAX);
        assert_eq!(step.latent_repaired, 1);
        assert_eq!(a.plan().latent_count(), 0);
        // Now a device failure is a single fault, not a double fault.
        a.fail_device(locs[1].device);
        assert!(a.try_read_chunk(locs[1]).is_ok());
    }

    #[test]
    fn scrub_pauses_during_rebuild_and_resumes() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..6).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        let victim = locs[0].device;
        a.fail_device(victim);
        a.start_rebuild(victim).unwrap();
        let step = a.scrub_step(usize::MAX);
        assert!(step.paused_for_rebuild);
        assert_eq!(step.chunks_scrubbed, 0);
        while !a.rebuild_step(1).unwrap().complete {}
        let step = a.scrub_step(usize::MAX);
        assert!(!step.paused_for_rebuild);
        assert!(step.chunks_scrubbed > 0);
        assert!(step.pass_complete);
    }

    #[test]
    fn scrub_paces_in_increments() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        for i in 0..9 {
            a.write_chunk_bytes(body(i), flush_full());
        }
        // 9 data chunks over 3 data columns = 3 complete stripes.
        let step = a.scrub_step(1);
        assert_eq!(step.stripes_scrubbed, 1);
        assert!(!step.pass_complete);
        let p = a.scrub_progress();
        assert_eq!(p.stripes_done, 1);
        assert_eq!(p.stripes_total, 3);
        let step = a.scrub_step(2);
        assert!(step.pass_complete);
        assert_eq!(a.stats().chunks_scrubbed, 12, "3 stripes × 4 chunks");
        assert_eq!(a.stats().scrub_read_bytes, 12 * 65536);
        // The next step starts a fresh pass (continuous scrubbing).
        let step = a.scrub_step(usize::MAX);
        assert_eq!(step.stripes_scrubbed, 3);
    }

    #[test]
    fn rebuild_refuses_to_launder_corrupt_survivor() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        a.inject_corruption(locs[1].device, locs[1].stripe);
        let victim = locs[0].device;
        a.fail_device(victim);
        a.rebuild_device(victim);
        assert_eq!(a.stats().corruptions_unrecoverable, 1);
        assert_eq!(a.stats().rebuilt_chunks, 0, "poisoned stripe not rebuilt");
    }

    #[test]
    fn raid6_degraded_reads_survive_double_failure() {
        let mut a = InMemoryArray::new(raid6());
        let locs: Vec<_> = (0..12).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        a.fail_device(locs[0].device);
        a.fail_device(locs[1].device);
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), body(i as u8), "chunk {i}");
            let (bytes, _) = a.try_read_chunk(*loc).unwrap();
            assert_eq!(bytes, body(i as u8), "chunk {i} via fallible path");
        }
        assert!(a.stats().degraded_reads > 0);
        // Every decode read exactly k = 6 shards.
        assert_eq!(a.stats().reconstructed_bytes, a.stats().degraded_reads * 6 * 65536);
    }

    #[test]
    fn raid6_triple_fault_is_unrecoverable() {
        let mut a = InMemoryArray::new(raid6());
        let locs: Vec<_> = (0..6).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        for loc in &locs[0..3] {
            a.fail_device(loc.device);
        }
        assert!(a.read_chunk(locs[0]).is_none());
        assert_eq!(a.try_read_chunk(locs[0]), Err(ArrayError::DoubleFault { loc: locs[0] }));
    }

    #[test]
    fn raid6_rebuilds_through_second_failure() {
        let mut a = InMemoryArray::new(raid6());
        let locs: Vec<_> = (0..12).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        let (d0, d1) = (locs[0].device, locs[1].device);
        a.fail_device(d0);
        a.fail_device(d1);
        // With m = 2, rebuilding one device while the other is still down
        // stays inside the erasure budget.
        assert!(a.rebuild_device(d0).unwrap() > 0);
        assert!(a.rebuild_device(d1).unwrap() > 0);
        assert_eq!(a.health_view(), ArrayHealth::Healthy);
        for (i, loc) in locs.iter().enumerate() {
            let (bytes, mode) = a.try_read_chunk(*loc).unwrap();
            assert_eq!(bytes, body(i as u8), "chunk {i}");
            assert_eq!(mode, ReadMode::Normal, "chunk {i} served directly after rebuild");
        }
    }

    #[test]
    fn raid6_degraded_read_heals_corrupt_member() {
        let mut a = InMemoryArray::new(raid6());
        let locs: Vec<_> = (0..12).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        let (victim, witness) = (locs[0], locs[1]);
        assert!(a.inject_corruption(witness.device, witness.stripe));
        a.fail_device(victim.device);
        // One erasure + one corruption still leaves k = 6 honest shards:
        // the decode heals the corrupt member on the way through.
        let (bytes, mode) = a.try_read_chunk(victim).unwrap();
        assert_eq!(mode, ReadMode::Reconstructed);
        assert_eq!(bytes, body(0));
        assert_eq!(a.stats().corruptions_detected, 1);
        assert_eq!(a.stats().corruptions_healed, 1);
        let (bytes, mode) = a.try_read_chunk(witness).unwrap();
        assert_eq!(mode, ReadMode::Normal, "witness healed in place");
        assert_eq!(bytes, body(1));
    }

    #[test]
    fn raid6_latent_plus_failure_within_budget() {
        let mut a = InMemoryArray::new(raid6());
        let locs: Vec<_> = (0..6).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        a.fail_device(locs[0].device);
        a.plan_mut().add_latent_sector(locs[1].device, locs[1].stripe);
        let (bytes, mode) = a.try_read_chunk(locs[0]).unwrap();
        assert_eq!(mode, ReadMode::Reconstructed);
        assert_eq!(bytes, body(0));
        let (bytes, mode) = a.try_read_chunk(locs[1]).unwrap();
        assert_eq!(mode, ReadMode::Reconstructed);
        assert_eq!(bytes, body(1));
    }

    #[test]
    fn add_device_widens_at_stripe_boundary() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let old: Vec<_> = (0..3).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        assert_eq!(a.config().num_devices, 4);
        let id = a.add_device();
        assert_eq!(id, 4);
        assert_eq!(a.config().num_devices, 5, "at a boundary the epoch rolls immediately");
        let new: Vec<_> = (10..14).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        assert!(new.iter().all(|l| l.stripe == 1), "4 data columns fill one 4+1 stripe");
        assert_eq!(a.stats().stripes_completed, 2);
        for (i, loc) in old.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), body(i as u8), "old-epoch chunk {i}");
        }
        for (i, loc) in new.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), body(10 + i as u8), "new-epoch chunk {i}");
        }
        // Degraded reads decode each stripe with its own epoch's geometry.
        a.fail_device(0);
        for (i, loc) in old.iter().chain(new.iter()).enumerate() {
            assert!(a.read_chunk(*loc).is_some(), "chunk {i} readable degraded");
        }
    }

    #[test]
    fn add_device_mid_stripe_defers_to_close() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let mut locs = vec![a.write_chunk_bytes(body(0), flush_full())];
        a.add_device();
        assert_eq!(a.config().num_devices, 4, "the open stripe keeps its geometry");
        locs.push(a.write_chunk_bytes(body(1), flush_full()));
        locs.push(a.write_chunk_bytes(body(2), flush_full()));
        assert_eq!(locs[2].stripe, 0);
        assert_eq!(a.config().num_devices, 5, "widened once the stripe closed");
        let next: Vec<_> = (3..7).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        assert!(next.iter().all(|l| l.stripe == 1));
        locs.extend(next);
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), body(i as u8), "chunk {i}");
        }
        let scrubbed = a.scrub_step(usize::MAX);
        assert!(scrubbed.pass_complete);
        assert_eq!(scrubbed.detected, 0, "mixed-geometry scrub finds nothing wrong");
    }

    #[test]
    fn drain_refreshes_latent_and_returns_healthy() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..6).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        let device = locs[0].device;
        a.plan_mut().add_latent_sector(device, locs[0].stripe);
        let held = a.devices[device].len() as u64;
        a.start_drain(device);
        assert_eq!(a.disk_states()[device], DiskState::Draining);
        assert_eq!(a.health_view(), ArrayHealth::Healthy, "draining spends no redundancy");
        while !a.drain_step(1).complete {}
        assert_eq!(a.disk_states()[device], DiskState::Healthy);
        assert_eq!(a.stats().drained_chunks, held);
        assert_eq!(a.stats().drain_write_bytes, held * 65536);
        assert_eq!(a.plan().latent_count(), 0, "the copy refreshed the latent sector");
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), body(i as u8), "chunk {i}");
        }
    }

    #[test]
    fn rebuild_prioritizes_exposed_stripes() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let locs: Vec<_> = (0..9).map(|i| a.write_chunk_bytes(body(i), flush_full())).collect();
        let victim = locs[0].device;
        // Expose stripe 2 on a non-victim device.
        let exposed = locs[6..9].iter().find(|l| l.device != victim).unwrap();
        a.plan_mut().add_latent_sector(exposed.device, exposed.stripe);
        a.fail_device(victim);
        a.start_rebuild(victim).unwrap();
        assert_eq!(a.rebuild_stripes[0], exposed.stripe, "most-exposed stripe first");
        while !a.rebuild_step(1).unwrap().complete {}
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), body(i as u8), "chunk {i}");
        }
    }
}

//! The array's one fault-modelling store: an erasure-coded array held in
//! memory.
//!
//! Keeps chunk contents per device, generates the `m` parity chunks when
//! a stripe's last data column arrives, checksums every chunk (CRC32C)
//! and serves reads through Reed-Solomon decode while up to `m` members
//! of a stripe are erased (failed devices or latent sectors). Failure,
//! degraded read, rebuild sweep, verify-on-read and scrub are each
//! implemented here once. `m = 1` reproduces the original XOR RAID-5
//! store byte-for-byte, including every counter.
//!
//! One struct, two body lengths. [`InMemoryArray::new`] keeps every byte
//! of every chunk — the prototype (§4.4), the byte-exactness tests and
//! the repo benchmark's `array-rebuild` workload run on it.
//! [`InMemoryArray::modelled`] keeps the first byte only, which is what
//! the trace-driven fault and scrub scenarios run on: parity, GF(256)
//! decode and CRC32C still run for real over that byte (a flipped byte
//! always fails its checksum), every counter still charges whole chunks,
//! and no line below asks which of the two it is — `tests/modelled_vs_bytes.rs`
//! holds the two to the same counters, read outcomes and progress under
//! random operation streams.
//!
//! # Layout: stripe-indexed slabs
//!
//! A device's chunk of stripe `s` is slot `s` of its media, at a fixed
//! offset in a slab of 32 slots. A slab of the full 64 KiB store is 2 MiB
//! of anonymous memory advised onto a huge page, so a fresh store takes one
//! page fault per 32 chunks, not sixteen per chunk; smaller slabs, and any
//! that cannot be mapped, are heap memory. Parity accumulates in its own
//! slots. A read copies its chunk out of the slab (after the CRC, while it
//! is in cache); degraded reads, rebuild, repair and scrub decode from
//! slices borrowed in place, and the rebuild decodes into the spare's slot.
//! The accounting path stores zero bodies without touching memory: a slot
//! never written is zero already.

use crate::config::ArrayConfig;
use crate::counters::ArrayStats;
use crate::crc;
use crate::error::ArrayError;
use crate::fault::{
    ArrayHealth, FaultPlan, ReadMode, ReadOutcome, RebuildProgress, ScrubProgress, ScrubStep,
};
use crate::gf256::gf_mul_into;
use crate::layout::{ChunkLocation, StripeLayout};
#[cfg(unix)]
use crate::media::mapped::Region;
use crate::rs::ReedSolomon;
use crate::sink::{ArraySink, ChunkFlush};
use bytes::{Bytes, BytesMut};
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

/// Chunk slots per slab: 32 chunks of 64 KiB are 2 MiB, one huge page.
const SLAB_CHUNKS: usize = 32;
/// Slabs at least this large are mapped and advised onto huge pages.
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// One slab's memory, zero when made: huge-page memory, or the heap.
enum Slab {
    Heap(Box<[u8]>),
    #[cfg(unix)]
    Mapped(Region),
}

impl Slab {
    fn new(bytes: usize) -> Self {
        #[cfg(unix)]
        if let Some(region) = (bytes >= HUGE_PAGE_BYTES).then(|| Region::anonymous(bytes)).flatten()
        {
            return Slab::Mapped(region);
        }
        Slab::Heap(vec![0; bytes].into_boxed_slice())
    }

    fn bytes(&self) -> &[u8] {
        match self {
            Slab::Heap(bytes) => bytes,
            #[cfg(unix)]
            Slab::Mapped(region) => region.as_slice(),
        }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        match self {
            Slab::Heap(bytes) => bytes,
            #[cfg(unix)]
            Slab::Mapped(region) => region.as_mut_slice(),
        }
    }
}

impl std::fmt::Debug for Slab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Slab({} bytes)", self.bytes().len())
    }
}

/// What a slot of a device's media holds: nothing ever (the zeros its slab
/// was made with), bytes that are no chunk (a chunk forgotten with its dead
/// media, parity accumulating, a decode under way), or the chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Fresh,
    Stale,
    Held,
}

/// One device's media: the chunk of stripe `s` is slot `s`, at a fixed
/// offset in slab `s / SLAB_CHUNKS`. A slab is made on the first write to
/// one of its slots and kept for the store's life.
#[derive(Debug, Default)]
struct Slabs {
    body_len: usize,
    slabs: Vec<Option<Slab>>,
    slots: Vec<Slot>,
}

impl Slabs {
    fn new(body_len: usize) -> Self {
        Self { body_len, slabs: Vec::new(), slots: Vec::new() }
    }

    fn state(&self, stripe: u64) -> Slot {
        let slot = usize::try_from(stripe).ok().and_then(|s| self.slots.get(s));
        slot.copied().unwrap_or(Slot::Fresh)
    }

    /// The chunk the media holds for `stripe`.
    fn get(&self, stripe: u64) -> Option<&[u8]> {
        let (s, len) = (stripe as usize, self.body_len);
        let slab = self.slabs.get(s / SLAB_CHUNKS)?.as_ref()?;
        (self.state(stripe) == Slot::Held).then(|| &slab.bytes()[s % SLAB_CHUNKS * len..][..len])
    }

    /// The memory of slot `stripe`, its slab made if need be, the slot
    /// now in state `to`.
    fn slot_mut(&mut self, stripe: u64, to: Slot) -> &mut [u8] {
        let (s, len) = (stripe as usize, self.body_len);
        if s >= self.slots.len() {
            self.slots.resize(s + 1, Slot::Fresh);
            self.slabs.resize_with(s / SLAB_CHUNKS + 1, || None);
        }
        self.slots[s] = to;
        let slab = self.slabs[s / SLAB_CHUNKS].get_or_insert_with(|| Slab::new(SLAB_CHUNKS * len));
        &mut slab.bytes_mut()[s % SLAB_CHUNKS * len..][..len]
    }

    /// Hold a copy of `bytes` as the chunk of `stripe`.
    fn put(&mut self, stripe: u64, bytes: &[u8]) {
        self.slot_mut(stripe, Slot::Held).copy_from_slice(bytes);
    }

    /// Zero slot `stripe` (for parity to accumulate in, or a zero body);
    /// a fresh slot is zero already, is not touched and stays fresh.
    fn seed(&mut self, stripe: u64) {
        if self.state(stripe) != Slot::Fresh {
            self.slot_mut(stripe, Slot::Stale).fill(0);
        }
    }

    /// Hold what slot `stripe` has as its chunk; returns its CRC32C, which
    /// is `zero_crc` for a slot still fresh.
    fn seal(&mut self, stripe: u64, zero_crc: u32) -> u32 {
        let fresh = self.state(stripe) == Slot::Fresh;
        let body = self.slot_mut(stripe, Slot::Held);
        if fresh {
            zero_crc
        } else {
            crc::crc32c(body)
        }
    }

    /// Forget every chunk below `stripe`: the slots keep their bytes and
    /// their slabs, but hold no chunk.
    fn forget_below(&mut self, stripe: u64) {
        let end = self.slots.len().min(usize::try_from(stripe).unwrap_or(usize::MAX));
        for slot in self.slots[..end].iter_mut().filter(|slot| **slot == Slot::Held) {
            *slot = Slot::Stale;
        }
    }
}

/// What [`InMemoryArray::decode_verified`] found.
struct Decoded {
    /// The members that failed their stored CRC, in member order.
    corrupt: Vec<usize>,
    /// Whether the decoded chunk matches the target's stored CRC; `None`
    /// when fewer than `k` members are honest and nothing was decoded.
    verified: Option<bool>,
}

/// An erasure-coded array held in memory, with its fault model.
#[derive(Debug)]
pub struct InMemoryArray {
    /// The geometry every stripe is written with, and its code.
    layout: StripeLayout,
    code: ReedSolomon,
    stats: ArrayStats,
    next_chunk_seq: u64,
    /// Bytes of each chunk that are stored, summed, encoded and decoded:
    /// the whole chunk, or one byte on a [`Self::modelled`] store.
    /// Counters charge `chunk_bytes` either way.
    body_len: usize,
    /// Each device's media, indexed by stripe. A failed device's media is
    /// dead and is not read; [`Self::start_rebuild`] forgets what it held
    /// of the closed stripes, and the sweep restores them into the same
    /// slabs (the spare).
    devices: Vec<Slabs>,
    /// CRC32C of a zero chunk body: what the accounting-only write path
    /// records without summing anything.
    zero_crc: u32,
    /// Devices marked failed; reads to them decode from survivors.
    failed: Vec<bool>,
    /// Transient-read draws, latent sectors and the op clock.
    plan: FaultPlan,
    /// Devices the in-progress rebuild sweep is restoring onto spares
    /// (empty: no sweep), and its stripe worklist, most-exposed first.
    rebuild_targets: Vec<usize>,
    rebuild_stripes: Vec<u64>,
    rebuild_cursor: usize,
    /// Device id → (stripe → CRC32C recorded when the chunk was written).
    /// Survives device failure and rebuild: it defines what the chunk's
    /// contents *should* be, independent of the media holding them.
    checksums: Vec<Vec<Option<u32>>>,
    /// (device, stripe) → op counter at injection, for detection latency.
    corruption_injected_at: HashMap<(usize, u64), u64>,
    /// Chunks reported unrecoverable. The verdict is sticky until the
    /// chunk is rewritten: reads answer `ChecksumMismatch` and neither
    /// they nor the scrub count the chunk again.
    known_bad: BTreeSet<(usize, u64)>,
    /// The current scrub pass: next stripe to verify, and its extent.
    scrub_cursor: u64,
    scrub_total: u64,
}

impl InMemoryArray {
    /// Create an empty array.
    pub fn new(cfg: ArrayConfig) -> Self {
        Self::with_fault_plan(cfg, FaultPlan::default())
    }

    /// Create an empty array driven by a fault plan.
    pub fn with_fault_plan(cfg: ArrayConfig, plan: FaultPlan) -> Self {
        Self::with_body_len(cfg, plan, cfg.chunk_bytes as usize)
    }

    /// Create an empty array that keeps one byte of every chunk: the same
    /// state machines, codes and checksums at a cost per chunk that does
    /// not depend on the chunk size. What the trace-driven fault and
    /// scrub scenarios run on.
    pub fn modelled(cfg: ArrayConfig, plan: FaultPlan) -> Self {
        Self::with_body_len(cfg, plan, 1)
    }

    fn with_body_len(cfg: ArrayConfig, plan: FaultPlan, body_len: usize) -> Self {
        cfg.validate();
        Self {
            layout: StripeLayout::new(cfg),
            code: ReedSolomon::new(cfg.data_columns(), cfg.parity_devices),
            stats: ArrayStats::new(cfg.num_devices),
            next_chunk_seq: 0,
            body_len,
            devices: (0..cfg.num_devices).map(|_| Slabs::new(body_len)).collect(),
            zero_crc: crc::crc32c(&vec![0; body_len]),
            failed: vec![false; cfg.num_devices],
            plan,
            rebuild_targets: Vec::new(),
            rebuild_stripes: Vec::new(),
            rebuild_cursor: 0,
            checksums: vec![Vec::new(); cfg.num_devices],
            corruption_injected_at: HashMap::new(),
            known_bad: BTreeSet::new(),
            scrub_cursor: 0,
            scrub_total: 0,
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

    /// A chunk with checksum `crc` was just written to (device, stripe):
    /// record the checksum and clear whatever fault the old contents
    /// carried — a rewrite refreshes the chunk's media.
    fn note_write(&mut self, device: usize, stripe: u64, crc: u32) {
        self.plan.clear_latent(device, stripe);
        let sums = &mut self.checksums[device];
        let s = stripe as usize;
        if s >= sums.len() {
            sums.resize(s + 1, None);
        }
        sums[s] = Some(crc);
        self.corruption_injected_at.remove(&(device, stripe));
        self.known_bad.remove(&(device, stripe));
    }

    /// The CRC recorded for (device, stripe), if a chunk was written there.
    fn checksum(&self, device: usize, stripe: u64) -> Option<u32> {
        let sums = &self.checksums[device];
        usize::try_from(stripe).ok().and_then(|s| sums.get(s).copied().flatten())
    }

    /// Write one chunk body; returns its location. `data.len()` must
    /// equal the store's body length — the chunk size (the caller is
    /// responsible for zero-padding), or one byte on a [`Self::modelled`]
    /// store. `flush` carries the accounting breakdown of the same chunk.
    pub fn write_chunk_bytes(&mut self, data: Bytes, flush: ChunkFlush) -> ChunkLocation {
        assert_eq!(data.len(), self.body_len, "sub-chunk write reached the array");
        self.append(Some(&data), flush)
    }

    /// Append one chunk: `body`, or a zero body for `None`.
    fn append(&mut self, body: Option<&[u8]>, flush: ChunkFlush) -> ChunkLocation {
        let cfg = *self.layout.config();
        assert_eq!(flush.total_bytes(), cfg.chunk_bytes, "flush accounting mismatch");

        self.plan.record_op();
        let (loc, closed) = self.stats.charge_append(&self.layout, self.next_chunk_seq, &flush);
        self.next_chunk_seq += 1;
        let media = &mut self.devices[loc.device];
        match body {
            Some(body) => media.put(loc.stripe, body),
            None => media.seed(loc.stripe),
        }
        let crc = media.seal(loc.stripe, self.zero_crc);
        self.note_write(loc.device, loc.stripe, crc);

        // The open stripe's parity accumulates in the parity devices'
        // slots, which hold no chunk until the last column arrives.
        let layout = self.layout;
        let parity = |j| layout.parity_device_j(loc.stripe, j);
        if loc.column == 0 {
            // Zero-seed the m parity slots; row 0 of the code is all ones,
            // so for m = 1 this is exactly the historical parity seed copy.
            for j in 0..cfg.parity_devices {
                self.devices[parity(j)].seed(loc.stripe);
            }
            self.stats.copy_bytes += (cfg.parity_devices * self.body_len) as u64;
        }
        // Fold the column into every parity slot; a zero body adds nothing.
        if let Some(body) = body {
            for j in 0..cfg.parity_devices {
                let acc = self.devices[parity(j)].slot_mut(loc.stripe, Slot::Stale);
                gf_mul_into(acc, body, self.code.coeff(j, loc.column));
            }
        }
        if closed {
            for j in 0..cfg.parity_devices {
                let crc = self.devices[parity(j)].seal(loc.stripe, self.zero_crc);
                self.note_write(parity(j), loc.stripe, crc);
            }
        }
        loc
    }

    /// Is `device`'s own copy of its chunk in `stripe` gone: the device
    /// failed, and no spare holds the chunk yet? A chunk the rebuild sweep
    /// has restored, or that was written after the sweep began, sits on
    /// the spare and is read from there.
    fn lost(&self, device: usize, stripe: u64) -> bool {
        self.failed[device]
            && !(self.rebuild_targets.contains(&device)
                && self.devices[device].get(stripe).is_some())
    }

    /// Does (device, stripe) currently count as an erasure against the
    /// stripe's budget of `m` — lost, or hidden by a latent sector error?
    fn erased(&self, device: usize, stripe: u64) -> bool {
        self.lost(device, stripe) || self.plan.is_latent(device, stripe)
    }

    /// Read the chunk at a location previously returned by
    /// [`Self::write_chunk_bytes`], ignoring the fault plan and the
    /// checksums. If the owning device has failed, the chunk is decoded
    /// from the stripe's survivors (requires at least `k` of its members).
    /// Returns `None` for never-written or unrecoverable locations.
    pub fn read_chunk(&self, loc: ChunkLocation) -> Option<Bytes> {
        let n = self.layout.config().num_devices;
        if loc.device >= n {
            return None;
        }
        if !self.lost(loc.device, loc.stripe) {
            return self.devices[loc.device].get(loc.stripe).map(Bytes::copy_from_slice);
        }
        // Degraded read: decode from the stripe's surviving members.
        let survivors: Vec<(usize, &[u8])> = (0..n)
            .filter(|&dev| !self.lost(dev, loc.stripe))
            .filter_map(|dev| {
                let b = self.devices[dev].get(loc.stripe)?;
                Some((self.layout.shard_of(loc.stripe, dev), b))
            })
            .collect();
        if survivors.len() < self.layout.config().data_columns() {
            return None; // erasures exceed the code's budget (or stripe never closed)
        }
        self.recover(&survivors, loc.stripe, loc.device)
    }

    /// Decode the chunk `device` holds in `stripe` from `survivors`
    /// (`(shard, chunk)` pairs, at least `k`, all of one length). The
    /// chunk is built in the buffer that is returned: a produced chunk is
    /// never copied.
    fn recover(&self, survivors: &[(usize, &[u8])], stripe: u64, device: usize) -> Option<Bytes> {
        let mut out = BytesMut::zeroed(survivors.first()?.1.len());
        self.code.recover_into(survivors, self.layout.shard_of(stripe, device), &mut out).ok()?;
        Some(out.freeze())
    }

    /// Fallible read with fault injection, verify-on-read, and
    /// degraded-read accounting: consults the fault plan (transient
    /// errors and latent sectors), checks every returned chunk against its
    /// stored CRC32C, repairs checksum mismatches in place from stripe
    /// survivors, serves reads on erased members by decode as long as no
    /// more than `m` members of the stripe are erased, and counts the
    /// traffic in [`ArrayStats`].
    /// A device or stripe the array does not have is `MissingChunk`.
    pub fn try_read_chunk(&mut self, loc: ChunkLocation) -> Result<(Bytes, ReadMode), ArrayError> {
        self.plan.record_op();
        if self.plan.transient_read_fires() {
            return Err(ArrayError::TransientRead { loc });
        }
        let cfg = *self.layout.config();
        let (n, k) = (cfg.num_devices, cfg.data_columns());
        if loc.device >= n {
            return Err(ArrayError::MissingChunk { loc });
        }
        if self.known_bad.contains(&(loc.device, loc.stripe)) {
            return Err(ArrayError::ChecksumMismatch { loc });
        }
        if !self.erased(loc.device, loc.stripe) {
            let body =
                self.devices[loc.device].get(loc.stripe).ok_or(ArrayError::MissingChunk { loc })?;
            if self.verifies(loc.device, loc.stripe, body) {
                return Ok((Bytes::copy_from_slice(body), ReadMode::Normal));
            }
            // Checksum mismatch: parity-guided repair from survivors.
            self.note_detection(loc.device, loc.stripe);
            return match self.try_repair(loc.device, loc.stripe) {
                Some((healed, _survivors)) => {
                    self.heal(loc.device, loc.stripe, &healed);
                    Ok((healed, ReadMode::Healed))
                }
                None => Err(self.condemn(loc)),
            };
        }
        // Degraded read: decode the chunk from the stripe's other members,
        // verifying every member read — a corrupt shard fed to the decoder
        // would silently produce garbage.
        let member = |device| ChunkLocation { stripe: loc.stripe, device, column: 0 };
        let (mut erased, mut missing, mut condemned) = (0, false, None);
        let mut members: Vec<(usize, &[u8])> = Vec::with_capacity(n - 1);
        for dev in 0..n {
            if self.erased(dev, loc.stripe) {
                erased += 1;
            } else if self.known_bad.contains(&(dev, loc.stripe)) {
                condemned = condemned.or(Some(dev));
            } else {
                match self.devices[dev].get(loc.stripe) {
                    Some(b) => members.push((dev, b)),
                    None => missing = true,
                }
            }
        }
        if erased > cfg.parity_devices {
            return Err(ArrayError::DoubleFault { loc });
        }
        if missing {
            return Err(ArrayError::Unreconstructable { loc }); // stripe never closed
        }
        let mut out = BytesMut::zeroed(self.body_len);
        let decoded = self.decode_verified(loc.stripe, &members, loc.device, &mut out);
        if members.len() - decoded.corrupt.len() < k {
            // Honest repair is impossible: a silent corruption has eaten
            // into the erasure budget. Fatal, as under RAID-5; the bad
            // member is the casualty to report (and to count, once).
            return Err(match (condemned, decoded.corrupt.first()) {
                (Some(dev), _) => ArrayError::ChecksumMismatch { loc: member(dev) },
                (None, Some(&dev)) => {
                    self.note_detection(dev, loc.stripe);
                    self.condemn(member(dev))
                }
                (None, None) => ArrayError::Unreconstructable { loc },
            });
        }
        // With spare redundancy (m ≥ 2) a corrupt member alongside the
        // erasure can still be healed from the honest shards. Every heal
        // is decoded before any is written back: each decodes from the
        // honest members, which no heal rewrites.
        let honest: Vec<(usize, &[u8])> =
            members.iter().filter(|(d, _)| !decoded.corrupt.contains(d)).copied().collect();
        let heals: Vec<Option<Bytes>> =
            decoded.corrupt.iter().map(|&dev| self.repaired(loc.stripe, &honest, dev)).collect();
        for (&dev, healed) in decoded.corrupt.iter().zip(heals) {
            self.note_detection(dev, loc.stripe);
            match healed {
                Some(healed) => self.heal(dev, loc.stripe, &healed),
                None => return Err(self.condemn(member(dev))),
            }
        }
        if !decoded.verified.ok_or(ArrayError::Unreconstructable { loc })? {
            self.note_detection(loc.device, loc.stripe);
            return Err(self.condemn(loc));
        }
        self.stats.degraded_reads += 1;
        self.stats.reconstructed_bytes += k as u64 * cfg.chunk_bytes;
        Ok((out.freeze(), ReadMode::Reconstructed))
    }

    /// Decode the chunk `target` holds in `stripe` into `out` from the
    /// first `k` of `members` (`(device, chunk)` pairs of the stripe, in
    /// device order), checking every member against its stored CRC in the
    /// same pass. Only when a member inside the decode set fails is the
    /// chunk decoded a second time, from the first `k` honest members.
    fn decode_verified(
        &self,
        stripe: u64,
        members: &[(usize, &[u8])],
        target: usize,
        out: &mut [u8],
    ) -> Decoded {
        let k = self.layout.config().data_columns();
        let shard = self.layout.shard_of(stripe, target);
        let shards: Vec<(usize, &[u8])> =
            members.iter().map(|&(d, b)| (self.layout.shard_of(stripe, d), b)).collect();
        let Ok((crcs, out_crc)) = self.code.recover_checked_into(&shards, shard, out) else {
            // Nothing to decode from: the members are checked alone.
            let corrupt = members.iter().filter(|&&(d, b)| !self.verifies(d, stripe, b));
            return Decoded { corrupt: corrupt.map(|&(d, _)| d).collect(), verified: None };
        };
        let corrupt: Vec<usize> = members
            .iter()
            .zip(&crcs)
            .filter(|&(&(d, _), &c)| !self.sums_to(d, stripe, c))
            .map(|(&(d, _), _)| d)
            .collect();
        let mut out_crc = Some(out_crc);
        if members[..k].iter().any(|(d, _)| corrupt.contains(d)) {
            let good: Vec<(usize, &[u8])> = shards
                .iter()
                .zip(members)
                .filter(|(_, (d, _))| !corrupt.contains(d))
                .map(|(&s, _)| s)
                .collect();
            out_crc = (good.len() >= k)
                .then(|| self.code.recover_checked_into(&good[..k], shard, out).ok())
                .flatten()
                .map(|(_, c)| c);
        }
        Decoded { corrupt, verified: out_crc.map(|c| self.sums_to(target, stripe, c)) }
    }

    /// [`Self::decode_verified`] into a fresh buffer: the chunk, if it
    /// matches the target's stored CRC.
    fn repaired(&self, stripe: u64, members: &[(usize, &[u8])], target: usize) -> Option<Bytes> {
        let mut out = BytesMut::zeroed(self.body_len);
        let decoded = self.decode_verified(stripe, members, target, &mut out);
        (decoded.verified == Some(true)).then(|| out.freeze())
    }

    /// Does `bytes` match the CRC recorded for (device, stripe)?
    fn verifies(&self, device: usize, stripe: u64, bytes: &[u8]) -> bool {
        self.sums_to(device, stripe, crc::crc32c(bytes))
    }

    /// Is `crc` the CRC recorded for (device, stripe)? Chunks written
    /// before checksumming existed (none in practice) pass.
    fn sums_to(&self, device: usize, stripe: u64, crc: u32) -> bool {
        self.checksum(device, stripe).is_none_or(|sum| sum == crc)
    }

    /// Account one detection: bump the counter and, if the corruption was
    /// injected by the plan, record ops elapsed since injection.
    fn note_detection(&mut self, device: usize, stripe: u64) {
        self.stats.corruptions_detected += 1;
        if let Some(at) = self.corruption_injected_at.remove(&(device, stripe)) {
            self.stats.detection_latency_ops += self.plan.ops().saturating_sub(at);
        }
    }

    /// Rewrite a corrupt chunk in place with its repaired contents.
    fn heal(&mut self, device: usize, stripe: u64, healed: &[u8]) {
        self.devices[device].put(stripe, healed);
        self.known_bad.remove(&(device, stripe));
        self.stats.corruptions_healed += 1;
        self.stats.heal_write_bytes += self.layout.config().chunk_bytes;
    }

    /// Give up on the chunk at `loc`: count it unrecoverable, once, and
    /// make the verdict stick. Returns the error its readers get.
    fn condemn(&mut self, loc: ChunkLocation) -> ArrayError {
        self.stats.corruptions_unrecoverable += 1;
        self.known_bad.insert((loc.device, loc.stripe));
        ArrayError::ChecksumMismatch { loc }
    }

    /// Rebuild the chunk at (device, stripe) from its stripe survivors,
    /// skipping members that are erased, missing, or fail their own CRC,
    /// and re-verifying the decode against the target's stored CRC.
    /// Returns the verified bytes and the number of shards read, or
    /// `None` when fewer than `k` honest members remain.
    fn try_repair(&self, device: usize, stripe: u64) -> Option<(Bytes, usize)> {
        self.checksum(device, stripe)?;
        let cfg = self.layout.config();
        let members: Vec<(usize, &[u8])> = (0..cfg.num_devices)
            .filter(|&dev| dev != device && !self.erased(dev, stripe))
            .filter_map(|dev| Some((dev, self.devices[dev].get(stripe)?)))
            .collect();
        let out = self.repaired(stripe, &members, device)?;
        Some((out, cfg.data_columns()))
    }

    /// Silently flip bytes in the stored chunk at (device, stripe) — the
    /// device keeps serving it as if nothing happened; only the checksum
    /// can tell. Any written chunk can corrupt, in an open stripe too.
    /// Returns false if there is no such chunk, or it is corrupt already
    /// (a second flip would restore the bytes).
    pub fn inject_corruption(&mut self, device: usize, stripe: u64) -> bool {
        let key = (device, stripe);
        let held = self.devices.get(device).is_some_and(|m| m.get(stripe).is_some());
        if !held || self.corruption_injected_at.contains_key(&key) || self.known_bad.contains(&key)
        {
            return false;
        }
        let body = self.devices[device].slot_mut(stripe, Slot::Held);
        let mid = body.len() / 2;
        body[0] ^= 0xA5;
        body[mid] ^= 0x5A;
        self.corruption_injected_at.insert(key, self.plan.ops());
        true
    }

    /// Injected corruptions not yet detected.
    pub fn outstanding_corruptions(&self) -> usize {
        self.corruption_injected_at.len()
    }

    /// Mark a device failed (degraded mode).
    pub fn fail_device(&mut self, device: usize) {
        assert!(device < self.failed.len(), "no such device");
        self.failed[device] = true;
    }

    /// Devices currently failed (under rebuild or not), in id order.
    pub fn failed_devices(&self) -> Vec<usize> {
        (0..self.failed.len()).filter(|&d| self.failed[d]).collect()
    }

    /// Current health: a rebuild (naming its lowest target) beats a failed
    /// device (the lowest one) beats healthy.
    pub fn health_view(&self) -> ArrayHealth {
        if let Some(&device) = self.rebuild_targets.iter().min() {
            ArrayHealth::Rebuilding { device }
        } else if let Some(device) = self.failed.iter().position(|&f| f) {
            ArrayHealth::Degraded { device }
        } else {
            ArrayHealth::Healthy
        }
    }

    /// Begin an incremental rebuild of `device` onto a fresh spare (a
    /// healthy device is dropped first: that is a replacement). See
    /// [`Self::start_rebuild_all`] for the sweep.
    pub fn start_rebuild(&mut self, device: usize) -> Result<RebuildProgress, ArrayError> {
        assert!(device < self.failed.len(), "no such device");
        self.start_sweep(vec![device])
    }

    /// Begin one incremental rebuild sweep that restores every failed
    /// device — up to `m` of them — onto fresh spares, reading each
    /// stripe's survivors once. The worklist is every closed stripe,
    /// **most-exposed stripes first**: a stripe that already carries a
    /// latent, corrupt, or condemned chunk on a surviving device is one
    /// fault from data loss, so the sweep closes those windows before
    /// touching clean stripes. Writes that arrive while rebuilding go to
    /// the spares directly. Errors when nothing is failed, or when the
    /// failed devices exceed the code's erasure budget.
    pub fn start_rebuild_all(&mut self) -> Result<RebuildProgress, ArrayError> {
        let targets = self.failed_devices();
        if targets.is_empty() {
            return Err(ArrayError::NotDegraded);
        }
        self.start_sweep(targets)
    }

    fn start_sweep(&mut self, targets: Vec<usize>) -> Result<RebuildProgress, ArrayError> {
        let mut down = targets.clone();
        down.extend(self.failed_devices().into_iter().filter(|d| !targets.contains(d)));
        if let Some(&device) = down.get(self.layout.config().parity_devices) {
            return Err(ArrayError::DoubleFault {
                loc: ChunkLocation { stripe: 0, device, column: 0 },
            });
        }
        let mut exposure: HashMap<u64, usize> = HashMap::new();
        let exposed = self.corruption_injected_at.keys().chain(&self.known_bad);
        for &(d, s) in exposed.chain(self.plan.latent_entries()) {
            if !targets.contains(&d) {
                *exposure.entry(s).or_default() += 1;
            }
        }
        // The sweep covers the stripes closed so far; later ones are written
        // with the spares in place.
        let closed = self.stats.stripes_completed;
        let mut stripes: Vec<u64> = (0..closed).collect();
        stripes.sort_by_key(|s| (Reverse(exposure.get(s).copied().unwrap_or(0)), *s));
        for &d in &targets {
            self.failed[d] = true;
            // The spare starts empty, but for what the array still holds in
            // its stripe buffer: the chunks of the stripe being filled, which
            // no parity covers yet. They go onto the spare as they are. The
            // dead media's slabs stay: the sweep restores into them.
            self.devices[d].forget_below(closed);
        }
        self.rebuild_targets = targets;
        self.rebuild_stripes = stripes;
        self.rebuild_cursor = 0;
        Ok(self.rebuild_progress())
    }

    /// Advance the rebuild sweep by at most `max_stripes` stripes. Each
    /// stripe reads its surviving members once and writes one chunk to
    /// every spare, charged to the rebuild counters. Completing the sweep
    /// returns the devices to service.
    pub fn rebuild_step(&mut self, max_stripes: usize) -> Result<RebuildProgress, ArrayError> {
        if self.rebuild_targets.is_empty() {
            return Err(ArrayError::NotDegraded);
        }
        let end = self.rebuild_cursor.saturating_add(max_stripes).min(self.rebuild_stripes.len());
        for i in self.rebuild_cursor..end {
            self.rebuild_stripe(self.rebuild_stripes[i]);
        }
        self.rebuild_cursor = end;
        if end == self.rebuild_stripes.len() {
            for d in self.rebuild_targets.drain(..) {
                self.failed[d] = false;
            }
        }
        Ok(self.rebuild_progress())
    }

    /// Restore `stripe` on every spare.
    fn rebuild_stripe(&mut self, stripe: u64) {
        let n = self.layout.config().num_devices;
        let spares = self.rebuild_targets.clone();
        // Each spare's media leaves the array while its chunk is decoded
        // straight into its slot from the survivors, borrowed in place; a
        // spare holds nothing of the stripe, so none of them is a member.
        let mut media: Vec<Slabs> =
            spares.iter().map(|&d| std::mem::take(&mut self.devices[d])).collect();
        let mut members: Vec<(usize, &[u8])> = (0..n)
            .filter(|&dev| !self.lost(dev, stripe))
            .filter_map(|dev| Some((dev, self.devices[dev].get(stripe)?)))
            .collect();
        let read = members.len() as u64;
        let mut rebuilt = Vec::with_capacity(spares.len());
        for (&device, spare) in spares.iter().zip(&mut media) {
            let out = spare.slot_mut(stripe, Slot::Stale);
            let decoded = self.decode_verified(stripe, &members, device, out);
            // Later spares decode from the members already found honest.
            members.retain(|(d, _)| !decoded.corrupt.contains(d));
            rebuilt.push(decoded.verified == Some(true));
        }
        let chunk_bytes = self.layout.config().chunk_bytes;
        self.stats.rebuild_read_bytes += read * chunk_bytes;
        for ((device, spare), rebuilt) in spares.into_iter().zip(media).zip(rebuilt) {
            self.devices[device] = spare;
            if !rebuilt {
                // A silently corrupt member poisoned the decode; holding it
                // would launder bad data into a "fresh" spare.
                self.note_detection(device, stripe);
                self.condemn(ChunkLocation { stripe, device, column: 0 });
                continue;
            }
            // The dead media took its latent sector, its corruption and
            // any verdict on it along.
            self.devices[device].slot_mut(stripe, Slot::Held);
            self.plan.clear_latent(device, stripe);
            self.corruption_injected_at.remove(&(device, stripe));
            self.known_bad.remove(&(device, stripe));
            self.stats.rebuild_write_bytes += chunk_bytes;
            self.stats.rebuilt_chunks += 1;
        }
    }

    /// Current sweep progress.
    pub fn rebuild_progress(&self) -> RebuildProgress {
        RebuildProgress {
            stripes_done: self.rebuild_cursor as u64,
            stripes_total: self.rebuild_stripes.len() as u64,
            complete: self.rebuild_targets.is_empty(),
        }
    }

    /// Restore a previously failed device in one sweep, rebuilding every
    /// chunk it held from the survivors. Returns the number of chunks
    /// rebuilt, or `None` if the erasure budget is already spent on other
    /// failed devices.
    pub fn rebuild_device(&mut self, device: usize) -> Option<usize> {
        let before = self.stats.rebuilt_chunks;
        self.start_rebuild(device).ok()?;
        self.rebuild_step(usize::MAX).ok()?;
        Some((self.stats.rebuilt_chunks - before) as usize)
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
        if !self.rebuild_targets.is_empty() {
            return ScrubStep::paused();
        }
        if self.scrub_cursor >= self.scrub_total {
            // The log appends stripes in order: the written ones are the
            // closed ones plus the one being filled.
            self.scrub_total =
                self.next_chunk_seq.div_ceil(self.layout.config().data_columns() as u64);
            self.scrub_cursor = 0;
        }
        let chunk_bytes = self.layout.config().chunk_bytes;
        let mut step = ScrubStep::default();
        let end = self.scrub_cursor.saturating_add(max_stripes as u64).min(self.scrub_total);
        for stripe in self.scrub_cursor..end {
            step.stripes_scrubbed += 1;
            for device in 0..self.devices.len() {
                if self.failed[device] || self.known_bad.contains(&(device, stripe)) {
                    continue;
                }
                let Some(bytes) = self.devices[device].get(stripe) else {
                    continue;
                };
                if self.plan.is_latent(device, stripe) {
                    // Unreadable media with intact redundancy: rewrite the
                    // chunk from survivors while we still can.
                    if let Some((rebuilt, n)) = self.try_repair(device, stripe) {
                        self.devices[device].put(stripe, &rebuilt);
                        self.plan.clear_latent(device, stripe);
                        step.latent_repaired += 1;
                        step.read_bytes += n as u64 * chunk_bytes;
                        step.heal_write_bytes += chunk_bytes;
                    }
                    continue;
                }
                step.chunks_scrubbed += 1;
                step.read_bytes += chunk_bytes;
                if self.verifies(device, stripe, bytes) {
                    continue;
                }
                step.detected += 1;
                if let Some(at) = self.corruption_injected_at.remove(&(device, stripe)) {
                    step.detection_latency_ops += self.plan.ops().saturating_sub(at);
                }
                match self.try_repair(device, stripe) {
                    Some((rebuilt, n)) => {
                        self.devices[device].put(stripe, &rebuilt);
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
        step.pass_complete = self.scrub_total > 0 && self.scrub_cursor >= self.scrub_total;
        self.stats.fold_scrub_step(&step);
        step
    }

    /// Current scrub-pass progress.
    pub fn scrub_progress(&self) -> ScrubProgress {
        ScrubProgress {
            stripes_done: self.scrub_cursor,
            stripes_total: self.scrub_total,
            complete: self.scrub_cursor >= self.scrub_total,
        }
    }
}

impl ArraySink for InMemoryArray {
    fn write_chunk(&mut self, flush: ChunkFlush) -> ChunkLocation {
        // Accounting-only path: every chunk body is zero, which a slot
        // never written is already, and its CRC is known. The prototype
        // uses `write_chunk_payload` with real payloads instead.
        self.append(None, flush)
    }

    fn write_chunk_payload(&mut self, flush: ChunkFlush, payload: &[u8]) -> ChunkLocation {
        // The ownership boundary: stored chunks must outlive the caller's
        // buffer, so what the store keeps of the borrowed payload is
        // copied exactly once, here, into its slot.
        assert_eq!(
            payload.len() as u64,
            self.layout.config().chunk_bytes,
            "sub-chunk write reached the array"
        );
        self.stats.copy_bytes += self.body_len as u64;
        self.append(Some(&payload[..self.body_len]), flush)
    }

    fn config(&self) -> &ArrayConfig {
        self.layout.config()
    }

    fn stats(&self) -> &ArrayStats {
        &self.stats
    }

    fn health(&self) -> ArrayHealth {
        self.health_view()
    }

    fn read_chunk_at(&mut self, loc: ChunkLocation) -> Result<ReadOutcome, ArrayError> {
        let chunk_bytes = self.layout.config().chunk_bytes;
        let k = self.layout.config().data_columns();
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
    use crate::error::Retryable;
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

    /// The two stores a test runs its body on: one keeps all 64 KiB of
    /// every chunk, the other its first byte.
    fn both(cfg: ArrayConfig, plan: FaultPlan) -> [InMemoryArray; 2] {
        [InMemoryArray::with_fault_plan(cfg, plan.clone()), InMemoryArray::modelled(cfg, plan)]
    }

    fn raid5_stores() -> [InMemoryArray; 2] {
        both(ArrayConfig::default(), FaultPlan::new(0))
    }

    /// What `a` keeps of `body(seed)`.
    fn kept(a: &InMemoryArray, seed: u8) -> Bytes {
        Bytes::copy_from_slice(&body(seed)[..a.body_len])
    }

    /// Append one chunk of `body(seed)` per seed.
    fn fill(a: &mut InMemoryArray, seeds: std::ops::Range<u8>) -> Vec<ChunkLocation> {
        seeds.map(|seed| a.write_chunk_bytes(kept(a, seed), flush_full())).collect()
    }

    /// What `device`'s media holds of every stripe written so far.
    fn held(a: &InMemoryArray, device: usize) -> Vec<Option<Vec<u8>>> {
        let stripes = a.stats().stripes_completed + 1;
        (0..stripes).map(|s| a.devices[device].get(s).map(<[u8]>::to_vec)).collect()
    }

    /// `locs[i]` holds `body(first_seed + i)` on the media.
    fn assert_contents(a: &InMemoryArray, locs: &[ChunkLocation], first_seed: u8) {
        for (i, loc) in locs.iter().enumerate() {
            assert_eq!(a.read_chunk(*loc).unwrap(), kept(a, first_seed + i as u8), "chunk {i}");
        }
    }

    #[test]
    fn streaming_parity_matches_batch_parity() {
        let mut a = InMemoryArray::new(ArrayConfig::default());
        let bodies: Vec<Bytes> = (0..3).map(body).collect();
        for b in &bodies {
            a.write_chunk_bytes(b.clone(), flush_full());
        }
        let pdev = a.layout.parity_device(0);
        let refs: Vec<&[u8]> = bodies.iter().map(|b| b.as_ref()).collect();
        assert_eq!(a.devices[pdev].get(0).unwrap(), parity::compute_parity(&refs).as_slice());
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
        let layout = a.layout;
        for (j, expect) in parity.iter().enumerate() {
            let pdev = layout.parity_device_j(0, j);
            assert_eq!(a.devices[pdev].get(0).unwrap(), expect.as_slice(), "parity row {j}");
        }
    }

    #[test]
    fn accounting_path_copies_only_the_parity_seed() {
        for mut a in raid5_stores() {
            for _ in 0..6 {
                a.write_chunk(flush_full());
            }
            // 6 chunks = 2 closed stripes; the shared zero chunk means the
            // only copies are the two parity-accumulator seeds.
            assert_eq!(a.stats().copy_bytes, 2 * a.body_len as u64);
            assert_eq!(a.stats().stripes_completed, 2);
            assert_eq!(a.stats().parity_bytes(), 2 * 65536, "counters charge whole chunks");
            assert_eq!(a.stats().data_bytes(), 6 * 65536);
        }
    }

    #[test]
    fn payload_write_is_copied_once_and_roundtrips() {
        for mut a in raid5_stores() {
            let loc = a.write_chunk_payload(flush_full(), &body(42));
            // One ownership-transfer copy plus the parity seed of a new stripe.
            assert_eq!(a.stats().copy_bytes, 2 * a.body_len as u64);
            assert_eq!(a.read_chunk(loc).unwrap(), kept(&a, 42));
        }
    }

    #[test]
    fn degraded_read_reconstructs() {
        // Stripe 0 is complete; fail each data device in turn and re-read.
        for victim in 0..3 {
            for mut a in raid5_stores() {
                let locs = fill(&mut a, 0..3);
                a.fail_device(locs[victim].device);
                assert_contents(&a, &locs, 0);
            }
        }
    }

    #[test]
    fn double_fault_unrecoverable() {
        for mut a in raid5_stores() {
            let loc = fill(&mut a, 1..4)[0];
            a.fail_device(loc.device);
            a.fail_device((loc.device + 1) % 4);
            assert!(a.read_chunk(loc).is_none());
        }
    }

    #[test]
    fn rebuild_restores_contents() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..6);
            let victim = locs[0].device;
            a.fail_device(victim);
            assert!(a.rebuild_device(victim).unwrap() > 0);
            assert_contents(&a, &locs, 0);
        }
    }

    #[test]
    fn rebuild_refuses_double_fault() {
        for mut a in raid5_stores() {
            fill(&mut a, 0..3);
            a.fail_device(0);
            a.fail_device(1);
            assert!(a.rebuild_device(0).is_none());
            assert!(matches!(a.start_rebuild_all(), Err(ArrayError::DoubleFault { .. })));
        }
    }

    #[test]
    fn rebuild_without_failure_is_error() {
        for mut a in raid5_stores() {
            assert_eq!(a.start_rebuild_all(), Err(ArrayError::NotDegraded));
            assert_eq!(a.rebuild_step(1), Err(ArrayError::NotDegraded));
        }
    }

    #[test]
    fn try_read_typed_errors() {
        for mut a in raid5_stores() {
            let loc = fill(&mut a, 1..2)[0];
            // Unwritten location.
            let missing = ChunkLocation { stripe: 99, device: 0, column: 0 };
            assert_eq!(a.try_read_chunk(missing), Err(ArrayError::MissingChunk { loc: missing }));
            // Failed device before the stripe closed: no parity to decode with.
            a.fail_device(loc.device);
            assert!(a.read_chunk(loc).is_none());
            assert_eq!(a.try_read_chunk(loc), Err(ArrayError::Unreconstructable { loc }));
            assert_eq!(a.read_chunk_at(loc), Err(ArrayError::Unreconstructable { loc }));
            // Second failure → double fault.
            a.fail_device((loc.device + 1) % 4);
            assert_eq!(a.try_read_chunk(loc), Err(ArrayError::DoubleFault { loc }));
        }
    }

    #[test]
    fn devices_and_stripes_the_array_lacks_are_typed_errors() {
        for mut a in raid5_stores() {
            let loc = fill(&mut a, 0..1)[0];
            let no_device = ChunkLocation { device: 4, ..loc };
            let no_stripe = ChunkLocation { stripe: 9, ..loc };
            for missing in [no_device, no_stripe] {
                let err = ArrayError::MissingChunk { loc: missing };
                assert_eq!(a.try_read_chunk(missing), Err(err));
                assert_eq!(a.read_chunk_at(missing), Err(err));
                assert!(a.read_chunk(missing).is_none());
                assert!(!a.inject_corruption(missing.device, missing.stripe));
            }
            assert_eq!(a.outstanding_corruptions(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "no such device")]
    fn failing_a_device_the_array_lacks_is_a_named_assert() {
        InMemoryArray::modelled(ArrayConfig::default(), FaultPlan::new(0)).fail_device(4);
    }

    #[test]
    fn transient_errors_fire() {
        for mut a in both(ArrayConfig::default(), FaultPlan::new(9).with_transient_read_prob(0.5)) {
            let loc = fill(&mut a, 0..1)[0];
            let mut transients = 0;
            for _ in 0..64 {
                if let Err(e) = a.read_chunk_at(loc) {
                    assert!(e.is_retryable());
                    transients += 1;
                }
            }
            assert!(transients > 10, "p=0.5 over 64 reads fired {transients}");
        }
    }

    #[test]
    fn degraded_read_accounts_reconstruction() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..3);
            a.fail_device(locs[0].device);
            let (bytes, mode) = a.try_read_chunk(locs[0]).unwrap();
            assert_eq!(mode, ReadMode::Reconstructed);
            assert_eq!(bytes, kept(&a, 0));
            assert_eq!(a.stats().degraded_reads, 1);
            assert_eq!(a.stats().reconstructed_bytes, 3 * 65536);
            let out = a.read_chunk_at(locs[0]).unwrap();
            assert_eq!(out.mode, ReadMode::Reconstructed);
            assert_eq!(out.device_bytes_read, 3 * 65536);
        }
    }

    #[test]
    fn degraded_reads_and_rebuild() {
        // Device 1 fails on the 7th op (after 2 full stripes of writes).
        for mut a in both(ArrayConfig::default(), FaultPlan::new(42)) {
            let locs = fill(&mut a, 0..6);
            assert_eq!(a.health_view(), ArrayHealth::Healthy);
            a.fail_device(1);
            fill(&mut a, 6..7); // 7th op
            assert_eq!(a.health_view(), ArrayHealth::Degraded { device: 1 });

            // Reads to surviving devices are normal; reads to device 1 in
            // closed stripes reconstruct.
            let mut degraded = 0;
            for &loc in &locs {
                let out = a.read_chunk_at(loc).unwrap();
                if loc.device == 1 {
                    assert_eq!(out.mode, ReadMode::Reconstructed);
                    assert_eq!(out.device_bytes_read, 3 * 65536);
                    degraded += 1;
                } else {
                    assert_eq!(out.mode, ReadMode::Normal);
                }
            }
            assert!(degraded > 0, "rotation must place some chunks on device 1");
            assert_eq!(a.stats().degraded_reads, degraded);
            assert_eq!(a.stats().reconstructed_bytes, degraded * 3 * 65536);

            // Incremental rebuild sweeps the closed stripes.
            let p = a.start_rebuild_all().unwrap();
            assert!(!p.complete);
            assert_eq!(a.health_view(), ArrayHealth::Rebuilding { device: 1 });
            let p = a.rebuild_step(1).unwrap();
            assert_eq!(p.stripes_done, 1);
            assert!(!p.complete);
            let p = a.rebuild_step(usize::MAX).unwrap();
            assert!(p.complete);
            assert_eq!(a.health_view(), ArrayHealth::Healthy);
            assert_eq!(p.stripes_total, 2);
            assert_eq!(a.stats().rebuilt_chunks, p.stripes_total);
            assert_eq!(a.stats().rebuild_write_bytes, p.stripes_total * 65536);
            assert_eq!(a.stats().rebuild_read_bytes, p.stripes_total * 3 * 65536);

            // Post-rebuild reads are normal again, and byte-exact.
            for &loc in &locs {
                assert_eq!(a.read_chunk_at(loc).unwrap().mode, ReadMode::Normal);
            }
            assert_contents(&a, &locs, 0);
        }
    }

    #[test]
    fn latent_sector_read_reconstructs() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..3);
            let victim = locs[1];
            // Media degrades after the stripe was written.
            a.plan_mut().add_latent_sector(victim.device, victim.stripe);
            let (bytes, mode) = a.try_read_chunk(victim).unwrap();
            assert_eq!(mode, ReadMode::Reconstructed);
            assert_eq!(bytes, kept(&a, 1));
            assert_eq!(a.stats().degraded_reads, 1);
            // A rewrite of the same (device, stripe) slot clears the error.
            a.plan_mut().clear_latent(victim.device, victim.stripe);
            let (_, mode) = a.try_read_chunk(victim).unwrap();
            assert_eq!(mode, ReadMode::Normal);
        }
    }

    #[test]
    fn writes_during_rebuild_land_on_spare_and_survive() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..3);
            let victim = locs[0].device;
            a.fail_device(victim);
            a.start_rebuild(victim).unwrap();
            // Write three more chunks mid-rebuild (one lands on the spare).
            let new_locs = fill(&mut a, 10..13);
            while !a.rebuild_step(1).unwrap().complete {}
            assert_contents(&a, &locs, 0);
            assert_contents(&a, &new_locs, 10);
        }
    }

    #[test]
    fn open_stripe_moves_to_the_spare_from_the_stripe_buffer() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..4); // stripe 0 closed, stripe 1 has one chunk
            let tail = locs[3];
            a.fail_device(tail.device);
            assert_eq!(a.try_read_chunk(tail), Err(ArrayError::Unreconstructable { loc: tail }));
            let p = a.start_rebuild(tail.device).unwrap();
            assert_eq!(p.stripes_total, 1, "the sweep covers the closed stripe");
            assert_eq!(a.try_read_chunk(tail).unwrap(), (kept(&a, 3), ReadMode::Normal));
            assert!(a.rebuild_step(usize::MAX).unwrap().complete);
            // Once stripe 1 closes, its parity covers the chunk like any other.
            fill(&mut a, 4..6);
            a.fail_device(tail.device);
            assert_eq!(a.try_read_chunk(tail).unwrap(), (kept(&a, 3), ReadMode::Reconstructed));
        }
    }

    #[test]
    fn restored_stripes_are_read_from_the_spare() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..6);
            let victim = locs[0];
            let pending = *locs[3..].iter().find(|l| l.device == victim.device).unwrap();
            a.fail_device(victim.device);
            a.start_rebuild(victim.device).unwrap();
            a.rebuild_step(1).unwrap(); // stripe 0 is restored, stripe 1 is not
            assert_eq!(a.try_read_chunk(victim).unwrap().1, ReadMode::Normal);
            assert_eq!(a.try_read_chunk(pending).unwrap().1, ReadMode::Reconstructed);
            // The restored chunk is no erasure any more: a latent sector on
            // another member is the stripe's first fault, not its second.
            a.plan_mut().add_latent_sector(locs[1].device, 0);
            assert_eq!(a.try_read_chunk(victim).unwrap().1, ReadMode::Normal);
            let (bytes, mode) = a.try_read_chunk(locs[1]).unwrap();
            assert_eq!((bytes, mode), (kept(&a, 1), ReadMode::Reconstructed));
            assert_eq!(a.stats().degraded_reads, 2);
        }
    }

    #[test]
    fn corrupted_read_heals_in_place() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..3);
            assert!(a.inject_corruption(locs[1].device, locs[1].stripe));
            assert!(!a.inject_corruption(locs[1].device, locs[1].stripe), "corrupt already");
            let (bytes, mode) = a.try_read_chunk(locs[1]).unwrap();
            assert_eq!(mode, ReadMode::Healed);
            assert_eq!(bytes, kept(&a, 1), "healed contents bit-identical to pre-corruption");
            assert_eq!(a.stats().corruptions_detected, 1);
            assert_eq!(a.stats().corruptions_healed, 1);
            assert_eq!(a.stats().heal_write_bytes, 65536);
            assert_eq!(a.outstanding_corruptions(), 0);
            // The rewrite stuck: the next read is clean and direct.
            let (_, mode) = a.try_read_chunk(locs[1]).unwrap();
            assert_eq!(mode, ReadMode::Normal);
            assert_eq!(a.stats().corruptions_detected, 1, "no re-detection after heal");
            // Through the sink interface a heal reports what it read.
            assert!(a.inject_corruption(locs[0].device, locs[0].stripe));
            let out = a.read_chunk_at(locs[0]).unwrap();
            assert_eq!(out.mode, ReadMode::Healed);
            assert_eq!(out.device_bytes_read, 4 * 65536, "bad chunk + 3 survivors");
        }
    }

    #[test]
    fn corruption_in_an_open_stripe_is_detected() {
        for mut a in raid5_stores() {
            let loc = fill(&mut a, 0..1)[0];
            assert!(a.inject_corruption(loc.device, loc.stripe), "any written chunk can corrupt");
            // No parity yet, so no repair — but never the wrong bytes.
            assert_eq!(a.try_read_chunk(loc), Err(ArrayError::ChecksumMismatch { loc }));
            assert_eq!(a.stats().corruptions_detected, 1);
            assert_eq!(a.stats().corruptions_unrecoverable, 1);
        }
    }

    #[test]
    fn corrupted_parity_healed_by_scrub() {
        for mut a in raid5_stores() {
            fill(&mut a, 0..3);
            let pdev = a.layout.parity_device(0);
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
            assert_eq!(Some(crc::crc32c(&got)), a.checksum(loc.device, 0));
        }
    }

    #[test]
    fn corruption_plus_device_failure_is_unrecoverable() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..3);
            a.inject_corruption(locs[0].device, locs[0].stripe);
            a.fail_device(locs[1].device);
            // Direct read of the corrupt chunk: repair needs the failed member.
            let err = a.try_read_chunk(locs[0]).unwrap_err();
            assert!(matches!(err, ArrayError::ChecksumMismatch { .. }), "{err}");
            assert!(!err.is_retryable());
            assert_eq!(a.stats().corruptions_unrecoverable, 1);
            // The verdict is sticky: re-reads fail without re-counting, and
            // so does the degraded read that needs the condemned member.
            for loc in [locs[0], locs[0], locs[1]] {
                let err = a.try_read_chunk(loc).unwrap_err();
                assert_eq!(err, ArrayError::ChecksumMismatch { loc: locs[0] }, "{err}");
            }
            assert_eq!(a.stats().corruptions_detected, 1);
            assert_eq!(a.stats().corruptions_unrecoverable, 1);
        }
    }

    #[test]
    fn degraded_read_detects_corrupt_survivor() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..3);
            a.fail_device(locs[0].device);
            a.inject_corruption(locs[1].device, locs[1].stripe);
            match a.read_chunk_at(locs[0]).unwrap_err() {
                ArrayError::ChecksumMismatch { loc } => assert_eq!(loc.device, locs[1].device),
                other => panic!("expected checksum mismatch, got {other}"),
            }
            assert_eq!(a.stats().corruptions_unrecoverable, 1);
        }
    }

    #[test]
    fn scheduled_corruption_fires_and_latency_is_counted() {
        for mut a in both(ArrayConfig::default(), FaultPlan::new(3)) {
            let locs = fill(&mut a, 0..3);
            assert!(a.inject_corruption(0, 0), "after the 3rd op");
            assert_eq!(a.outstanding_corruptions(), 1);
            let victim = locs.iter().find(|l| l.device == 0).unwrap();
            // Two clean reads of other chunks, then hit the corrupt one.
            for loc in locs.iter().filter(|l| l.device != 0) {
                a.try_read_chunk(*loc).unwrap();
            }
            let (bytes, mode) = a.try_read_chunk(*victim).unwrap();
            assert_eq!(mode, ReadMode::Healed);
            assert_eq!(Some(crc::crc32c(&bytes)), a.checksum(victim.device, victim.stripe));
            // Injected at op 3, detected at op 6 (3 writes + 3 reads).
            assert_eq!(a.stats().detection_latency_ops, 3);
            assert_eq!(a.stats().mean_detection_latency_ops(), 3.0);
        }
    }

    #[test]
    fn scheduled_corruption_latency_counted_by_scrub() {
        for mut a in both(ArrayConfig::default(), FaultPlan::new(1)) {
            fill(&mut a, 0..6);
            assert!(a.inject_corruption(0, 0), "after op 6");
            fill(&mut a, 6..9);
            assert_eq!(a.outstanding_corruptions(), 1);
            let step = a.scrub_step(usize::MAX);
            assert_eq!(step.detected, 1);
            // Injected at op 6, scrubbed after op 9.
            assert_eq!(step.detection_latency_ops, 3);
            assert_eq!(a.stats().mean_detection_latency_ops(), 3.0);
        }
    }

    #[test]
    fn scrub_repairs_latent_sectors() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..3);
            a.plan_mut().add_latent_sector(locs[0].device, locs[0].stripe);
            let step = a.scrub_step(usize::MAX);
            assert_eq!(step.latent_repaired, 1);
            assert_eq!(a.plan().latent_count(), 0);
            assert_eq!(a.stats().scrub_latent_repaired, 1);
            // Now a device failure is a single fault, not a double fault.
            a.fail_device(locs[1].device);
            assert!(a.try_read_chunk(locs[1]).is_ok());
        }
    }

    #[test]
    fn scrub_pauses_during_rebuild_and_resumes() {
        for mut a in raid5_stores() {
            let victim = fill(&mut a, 0..6)[0].device;
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
    }

    #[test]
    fn scrub_detects_heals_and_paces() {
        // 9 chunks = 3 closed stripes; corrupt one data chunk and the
        // parity of another stripe.
        for mut a in raid5_stores() {
            fill(&mut a, 0..9);
            let pdev = a.layout.parity_device(1);
            assert!(a.inject_corruption(0, 0));
            assert!(a.inject_corruption(pdev, 1));
            let step = a.scrub_step(1);
            assert_eq!(step.stripes_scrubbed, 1);
            assert_eq!((step.detected, step.healed), (1, 1));
            assert!(!step.pass_complete);
            let p = a.scrub_progress();
            assert_eq!((p.stripes_done, p.stripes_total), (1, 3));
            let step = a.scrub_step(usize::MAX);
            assert_eq!(step.stripes_scrubbed, 2);
            assert_eq!(step.detected, 1, "parity corruption found");
            assert!(step.pass_complete);
            assert_eq!(a.stats().corruptions_detected, 2);
            assert_eq!(a.stats().corruptions_healed, 2);
            assert_eq!(a.stats().chunks_scrubbed, 12, "3 stripes × 4 chunks");
            assert_eq!(a.stats().scrub_read_bytes, (12 + 2 * 3) * 65536, "and two decodes");
            assert_eq!(a.outstanding_corruptions(), 0);
            // The next step starts a fresh pass (continuous scrubbing) and
            // finds nothing.
            let step = a.scrub_step(usize::MAX);
            assert_eq!(step.stripes_scrubbed, 3);
            assert_eq!(step.detected, 0);
        }
    }

    #[test]
    fn rebuild_refuses_to_launder_corrupt_survivor() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..3);
            a.inject_corruption(locs[1].device, locs[1].stripe);
            let victim = locs[0].device;
            a.fail_device(victim);
            a.rebuild_device(victim);
            assert_eq!(a.stats().corruptions_unrecoverable, 1);
            assert_eq!(a.stats().rebuilt_chunks, 0, "poisoned stripe not rebuilt");
        }
    }

    #[test]
    fn raid6_degraded_reads_survive_double_failure() {
        for mut a in both(raid6(), FaultPlan::new(0)) {
            let locs = fill(&mut a, 0..12);
            a.fail_device(locs[0].device);
            a.fail_device(locs[1].device);
            assert_contents(&a, &locs, 0);
            for (i, loc) in locs.iter().enumerate() {
                let (bytes, _) = a.try_read_chunk(*loc).unwrap();
                assert_eq!(bytes, kept(&a, i as u8), "chunk {i} via fallible path");
            }
            assert!(a.stats().degraded_reads > 0);
            // Every decode read exactly k = 6 shards.
            assert_eq!(a.stats().reconstructed_bytes, a.stats().degraded_reads * 6 * 65536);
        }
    }

    #[test]
    fn raid6_one_sweep_rebuilds_a_correlated_double_failure() {
        // Both devices die on the same op, after two closed stripes.
        for mut a in both(raid6(), FaultPlan::new(7)) {
            let locs = fill(&mut a, 0..12);
            a.fail_device(2);
            a.fail_device(5);
            fill(&mut a, 12..13); // 13th op
            assert_eq!(a.health_view(), ArrayHealth::Degraded { device: 2 });
            assert_eq!(a.failed_devices(), [2, 5]);

            // Every chunk in the two closed stripes stays readable: direct on
            // the 6 survivors, decoded from k = 6 members on the dead pair.
            let mut degraded = 0;
            for &loc in &locs {
                let out = a.read_chunk_at(loc).unwrap();
                if loc.device == 2 || loc.device == 5 {
                    assert_eq!(out.mode, ReadMode::Reconstructed);
                    assert_eq!(out.device_bytes_read, 6 * 65536);
                    degraded += 1;
                } else {
                    assert_eq!(out.mode, ReadMode::Normal);
                }
            }
            assert!(degraded > 0, "rotation must place chunks on the dead pair");
            assert_eq!(a.stats().degraded_reads, degraded);
            assert_eq!(a.stats().reconstructed_bytes, degraded * 6 * 65536);

            // A sweep of device 5 alone names it, though device 2 is down
            // too: a rebuild beats a failure.
            a.start_rebuild(5).unwrap();
            assert_eq!(a.health_view(), ArrayHealth::Rebuilding { device: 5 });

            // One sweep rebuilds both devices: each closed stripe reads its
            // n − 2 = 6 survivors once and writes 2 spare chunks.
            a.start_rebuild_all().unwrap();
            assert_eq!(a.health_view(), ArrayHealth::Rebuilding { device: 2 });
            assert_eq!(a.rebuild_targets, [2, 5]);
            let p = a.rebuild_step(usize::MAX).unwrap();
            assert!(p.complete);
            assert_eq!(a.health_view(), ArrayHealth::Healthy);
            let stripes = p.stripes_total;
            assert_eq!(stripes, 2);
            assert_eq!(a.stats().rebuilt_chunks, stripes * 2);
            assert_eq!(a.stats().rebuild_read_bytes, stripes * 6 * 65536);
            assert_eq!(a.stats().rebuild_write_bytes, stripes * 2 * 65536);
            for &loc in &locs {
                assert_eq!(a.read_chunk_at(loc).unwrap().mode, ReadMode::Normal);
            }
            assert_contents(&a, &locs, 0);
        }
    }

    #[test]
    fn raid6_triple_fault_is_unrecoverable() {
        for mut a in both(raid6(), FaultPlan::new(0)) {
            let locs = fill(&mut a, 0..6);
            for loc in &locs[0..3] {
                a.fail_device(loc.device);
            }
            assert!(a.read_chunk(locs[0]).is_none());
            assert_eq!(a.try_read_chunk(locs[0]), Err(ArrayError::DoubleFault { loc: locs[0] }));
            match a.start_rebuild_all() {
                Err(ArrayError::DoubleFault { loc }) => assert_eq!(loc.device, locs[2].device),
                other => panic!("expected DoubleFault at the third failure, got {other:?}"),
            }
        }
    }

    #[test]
    fn raid6_rebuilds_through_second_failure() {
        for mut a in both(raid6(), FaultPlan::new(0)) {
            let locs = fill(&mut a, 0..12);
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
                assert_eq!(bytes, kept(&a, i as u8), "chunk {i}");
                assert_eq!(mode, ReadMode::Normal, "chunk {i} served directly after rebuild");
            }
        }
    }

    #[test]
    fn raid6_degraded_read_heals_corrupt_member() {
        for mut a in both(raid6(), FaultPlan::new(0)) {
            let locs = fill(&mut a, 0..12);
            let (victim, witness) = (locs[0], locs[1]);
            assert!(a.inject_corruption(witness.device, witness.stripe));
            a.fail_device(victim.device);
            // One erasure + one corruption still leaves k = 6 honest shards:
            // the decode heals the corrupt member on the way through, where
            // RAID-5 had to condemn it.
            let (bytes, mode) = a.try_read_chunk(victim).unwrap();
            assert_eq!(mode, ReadMode::Reconstructed);
            assert_eq!(bytes, kept(&a, 0));
            assert_eq!(a.stats().corruptions_detected, 1);
            assert_eq!(a.stats().corruptions_healed, 1);
            assert_eq!(a.stats().corruptions_unrecoverable, 0);
            assert_eq!(a.outstanding_corruptions(), 0);
            let (bytes, mode) = a.try_read_chunk(witness).unwrap();
            assert_eq!(mode, ReadMode::Normal, "witness healed in place");
            assert_eq!(bytes, kept(&a, 1));
        }
    }

    #[test]
    fn raid6_rebuild_decodes_past_a_corrupt_member_of_the_decode_set() {
        for mut a in both(raid6(), FaultPlan::new(0)) {
            fill(&mut a, 0..12);
            let victim = 7;
            let before = held(&a, victim);
            // Device 0 is the first member of every stripe, so the first
            // decode of stripe 0 reads the corrupt chunk and a second one,
            // from the first k honest members, restores the spare.
            assert!(a.inject_corruption(0, 0));
            a.fail_device(victim);
            assert_eq!(a.rebuild_device(victim), Some(2));
            assert_eq!(held(&a, victim), before, "every chunk restored byte for byte");
            assert_eq!(a.stats().corruptions_unrecoverable, 0);
            assert!(a.known_bad.is_empty(), "nothing condemned");
            // A rebuild drops a corrupt survivor from the decode without
            // counting or healing it: it is still there to be found.
            assert_eq!(a.stats().corruptions_detected, 0);
            assert_eq!(a.outstanding_corruptions(), 1);
        }
    }

    #[test]
    fn raid6_scrub_repairs_a_latent_chunk_past_a_corrupt_member() {
        for mut a in both(raid6(), FaultPlan::new(0)) {
            fill(&mut a, 0..12);
            let before: Vec<Vec<u8>> =
                (0..8).map(|d| a.devices[d].get(0).unwrap().to_vec()).collect();
            // The scrub reaches device 0 first: its repair decodes from
            // devices 1.., and device 1 is corrupt.
            a.plan_mut().add_latent_sector(0, 0);
            assert!(a.inject_corruption(1, 0));
            let step = a.scrub_step(usize::MAX);
            assert_eq!(step.latent_repaired, 1);
            assert_eq!((step.detected, step.healed, step.unrecoverable), (1, 1, 0));
            assert_eq!(a.plan().latent_count(), 0);
            assert_eq!(a.outstanding_corruptions(), 0);
            let after: Vec<Vec<u8>> =
                (0..8).map(|d| a.devices[d].get(0).unwrap().to_vec()).collect();
            assert_eq!(after, before, "stripe 0 restored byte for byte");
        }
    }

    #[test]
    fn raid6_latent_plus_failure_within_budget() {
        for mut a in both(raid6(), FaultPlan::new(0)) {
            let locs = fill(&mut a, 0..6);
            a.fail_device(locs[0].device);
            a.plan_mut().add_latent_sector(locs[1].device, locs[1].stripe);
            for (i, loc) in locs.iter().enumerate().take(2) {
                let (bytes, mode) = a.try_read_chunk(*loc).unwrap();
                assert_eq!(mode, ReadMode::Reconstructed);
                assert_eq!(bytes, kept(&a, i as u8));
            }
            // A third erasure in the stripe breaks the budget.
            a.plan_mut().add_latent_sector(locs[2].device, locs[2].stripe);
            assert!(matches!(a.try_read_chunk(locs[0]), Err(ArrayError::DoubleFault { .. })));
        }
    }

    #[test]
    fn a_forgotten_slot_is_never_served_stale() {
        for mut a in raid5_stores() {
            // 40 stripes: the victim's slots span two slabs.
            let locs = fill(&mut a, 0..120);
            let victim = 1;
            // The dead media's copies differ from the chunks they held.
            let on_victim: Vec<(u8, ChunkLocation)> =
                (0..120).zip(locs).filter(|(_, l)| l.device == victim).collect();
            for (_, loc) in &on_victim {
                assert!(a.inject_corruption(victim, loc.stripe));
            }
            a.fail_device(victim);
            a.start_rebuild(victim).unwrap();
            a.rebuild_step(1).unwrap();
            let reached = a.rebuild_stripes[0];
            for &(seed, loc) in on_victim.iter().filter(|(_, l)| l.stripe != reached) {
                assert_eq!(a.read_chunk(loc).unwrap(), kept(&a, seed), "{loc:?}");
                assert_eq!(
                    a.try_read_chunk(loc).unwrap(),
                    (kept(&a, seed), ReadMode::Reconstructed)
                );
            }
            while !a.rebuild_step(8).unwrap().complete {}
            let more = fill(&mut a, 120..123);
            assert_contents(&a, &more, 120);
        }
    }

    #[test]
    fn zero_bodies_read_back_as_zeros_with_the_zero_crc() {
        for mut a in raid5_stores() {
            fill(&mut a, 0..120);
            let victim = 0;
            a.fail_device(victim);
            a.start_rebuild(victim).unwrap();
            // The accounting path lands in fresh slots, on the spare too.
            let zeros = Bytes::from(vec![0; a.body_len]);
            let locs: Vec<ChunkLocation> = (0..6).map(|_| a.write_chunk(flush_full())).collect();
            for loc in locs {
                assert_eq!(a.read_chunk(loc).unwrap(), zeros);
                assert_eq!(a.checksum(loc.device, loc.stripe), Some(crc::crc32c(&zeros)));
            }
            // A zero body stored into a slot the spare forgot, as the
            // accounting path stores it, is zeroed: the dead media's bytes
            // are still there.
            let zero_crc = a.zero_crc;
            let media = &mut a.devices[victim];
            let forgotten: Vec<u64> = (0..40).filter(|&s| media.state(s) == Slot::Stale).collect();
            assert_eq!(forgotten.len(), 40);
            for stripe in forgotten {
                media.seed(stripe);
                assert_eq!(media.seal(stripe, zero_crc), crc::crc32c(&zeros), "stripe {stripe}");
                assert_eq!(media.get(stripe).unwrap(), &zeros[..], "stripe {stripe}");
            }
        }
    }

    #[test]
    fn heap_slabs_round_trip_writes_degraded_reads_and_rebuild() {
        // 16 KiB chunks make 512 KiB slabs, under a huge page: heap memory.
        let mut a = InMemoryArray::new(ArrayConfig::with_parity(6, 2, 16384));
        let payload = |i: usize| -> Vec<u8> {
            (0..16384).map(|j| (i * 31 + j / 7) as u8 ^ j as u8).collect()
        };
        let flush = ChunkFlush { user_bytes: 16384, ..flush_full() };
        let locs: Vec<ChunkLocation> =
            (0..160).map(|i| a.write_chunk_payload(flush, &payload(i))).collect();
        let slabs = || a.devices.iter().flat_map(|m| m.slabs.iter().flatten());
        assert!(slabs().all(|s| matches!(s, Slab::Heap(_))));
        assert_eq!(slabs().count(), 6 * 2, "40 stripes: two slabs per device");
        a.fail_device(1);
        a.fail_device(4);
        for (i, &loc) in locs.iter().enumerate() {
            let (bytes, _) = a.try_read_chunk(loc).unwrap();
            assert_eq!(bytes, payload(i), "degraded read of chunk {i}");
        }
        assert!(a.stats().degraded_reads > 0);
        a.start_rebuild_all().unwrap();
        while !a.rebuild_step(7).unwrap().complete {}
        for (i, &loc) in locs.iter().enumerate() {
            assert_eq!(a.try_read_chunk(loc).unwrap(), (payload(i).into(), ReadMode::Normal));
        }
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn full_chunk_slabs_are_mapped_and_made_on_first_write() {
        let mut a = InMemoryArray::new(raid6());
        assert!(a.devices.iter().all(|m| m.slabs.is_empty()), "nothing made before a write");
        fill(&mut a, 0..1);
        let made: Vec<&Slab> = a.devices.iter().flat_map(|m| m.slabs.iter().flatten()).collect();
        // The data chunk's device and the two parity devices.
        assert_eq!(made.len(), 3);
        assert!(made.iter().all(|s| matches!(s, Slab::Mapped(_)) && s.bytes().len() == 2 << 20));
    }

    #[test]
    fn rebuild_prioritizes_exposed_stripes() {
        for mut a in raid5_stores() {
            let locs = fill(&mut a, 0..9);
            let victim = locs[0].device;
            // Expose stripe 2 on a non-victim device.
            let exposed = locs[6..9].iter().find(|l| l.device != victim).unwrap();
            a.plan_mut().add_latent_sector(exposed.device, exposed.stripe);
            a.fail_device(victim);
            a.start_rebuild(victim).unwrap();
            assert_eq!(a.rebuild_stripes[0], exposed.stripe, "most-exposed stripe first");
            while !a.rebuild_step(1).unwrap().complete {}
            assert_contents(&a, &locs, 0);
        }
    }

    #[test]
    fn rebuild_visits_most_exposed_stripes_first() {
        // 4 closed stripes; stripe 2 has a latent sector and stripe 1 has
        // latent + corruption on the survivors. Priority order: 1, 2, then
        // 0, 3.
        for mut a in raid5_stores() {
            fill(&mut a, 0..12);
            a.fail_device(0);
            let layout = a.layout;
            let survivor =
                |stripe: u64| (1..4).find(|&d| layout.parity_device(stripe) != d).unwrap();
            a.plan_mut().add_latent_sector(survivor(1), 1);
            a.inject_corruption(layout.parity_device(1), 1);
            a.plan_mut().add_latent_sector(survivor(2), 2);
            a.start_rebuild_all().unwrap();
            assert_eq!(a.rebuild_stripes, vec![1, 2, 0, 3]);
            let p = a.rebuild_step(1).unwrap();
            assert_eq!(p.stripes_done, 1, "most-exposed stripe visited first");
            a.rebuild_step(usize::MAX).unwrap();
            assert!(a.rebuild_progress().complete);
        }
    }
}

//! Deterministic fault injection for the array layer.
//!
//! A [`FaultPlan`] is a seedable schedule of device failures, transient
//! read errors, and latent sector errors. It is consulted by the array
//! implementations on every operation, so a given seed + schedule replays
//! the exact same fault sequence — the property the recovery tests and the
//! fault-scenario simulator rely on.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Health of the array as seen by the layer above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArrayHealth {
    /// All devices operational.
    Healthy,
    /// One device failed; reads to it are served by reconstruction.
    Degraded { device: usize },
    /// A spare is being rebuilt for the failed device.
    Rebuilding { device: usize },
}

impl ArrayHealth {
    /// The failed device, if any.
    pub fn failed_device(&self) -> Option<usize> {
        match self {
            ArrayHealth::Healthy => None,
            ArrayHealth::Degraded { device } | ArrayHealth::Rebuilding { device } => Some(*device),
        }
    }

    /// Summarize a per-device state vector: `Rebuilding` wins over
    /// `Degraded` wins over `Healthy`, reporting the first affected
    /// device. (A draining device is still fully readable, so a drain by
    /// itself leaves the array `Healthy`.)
    pub fn from_disk_states(states: &[DiskState]) -> ArrayHealth {
        if let Some(device) = states.iter().position(|s| *s == DiskState::Rebuilding) {
            return ArrayHealth::Rebuilding { device };
        }
        if let Some(device) = states.iter().position(|s| *s == DiskState::Failed) {
            return ArrayHealth::Degraded { device };
        }
        ArrayHealth::Healthy
    }
}

/// Lifecycle state of one member device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiskState {
    /// Fully operational.
    Healthy,
    /// Operational, but being proactively evacuated onto a replacement
    /// (planned removal): reads are served directly, and a paced copy
    /// sweep moves its chunks without spending redundancy.
    Draining,
    /// Failed: reads to it require erasure-decode from stripe survivors.
    Failed,
    /// A spare is being rebuilt for this (failed) device.
    Rebuilding,
}

impl DiskState {
    /// Whether the device's chunks must currently be served by
    /// reconstruction (it counts as an erasure against the code's `m`).
    pub fn is_erased(&self) -> bool {
        matches!(self, DiskState::Failed | DiskState::Rebuilding)
    }
}

/// How a read was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Directly from the chunk's home device.
    Normal,
    /// Reconstructed by XOR-ing the stripe's survivors.
    Reconstructed,
    /// The direct read failed its checksum; the chunk was rebuilt from
    /// stripe survivors, re-verified, and rewritten in place.
    Healed,
}

/// Result of a successful chunk read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// How the read was served.
    pub mode: ReadMode,
    /// Bytes physically read from devices to serve it (one chunk when
    /// normal; the surviving `n-1` chunks when reconstructed).
    pub device_bytes_read: u64,
}

impl ReadOutcome {
    /// A direct read of one chunk.
    pub fn normal(chunk_bytes: u64) -> Self {
        Self { mode: ReadMode::Normal, device_bytes_read: chunk_bytes }
    }

    /// A reconstruction from `survivors` chunks.
    pub fn reconstructed(chunk_bytes: u64, survivors: usize) -> Self {
        Self { mode: ReadMode::Reconstructed, device_bytes_read: chunk_bytes * survivors as u64 }
    }

    /// A checksum-mismatch repair: the bad chunk plus `survivors` chunks
    /// were read to rebuild and re-verify it.
    pub fn healed(chunk_bytes: u64, survivors: usize) -> Self {
        Self { mode: ReadMode::Healed, device_bytes_read: chunk_bytes * (survivors as u64 + 1) }
    }
}

/// Progress of an incremental rebuild sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebuildProgress {
    /// Stripes rebuilt so far.
    pub stripes_done: u64,
    /// Stripes the sweep will visit in total.
    pub stripes_total: u64,
    /// Whether the sweep has finished and the array is healthy again.
    pub complete: bool,
}

/// Progress of an incremental scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubProgress {
    /// Stripes verified so far in the current pass.
    pub stripes_done: u64,
    /// Stripes the pass will visit in total.
    pub stripes_total: u64,
    /// Whether the current pass has finished.
    pub complete: bool,
}

/// What one [`crate::ArraySink::scrub_step`] call accomplished — the
/// per-step deltas the engine folds into its own metrics windows (the
/// array's [`crate::ArrayStats`] carry the cumulative totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubStep {
    /// Stripes whose chunks were verified this step.
    pub stripes_scrubbed: u64,
    /// Chunks (data + parity) whose checksums were verified this step.
    pub chunks_scrubbed: u64,
    /// Bytes read off devices to verify them.
    pub read_bytes: u64,
    /// Checksum mismatches (silent corruptions) detected this step.
    pub detected: u64,
    /// Mismatched chunks repaired from stripe survivors and rewritten.
    pub healed: u64,
    /// Mismatched chunks that could not be repaired (a second fault in
    /// the same stripe).
    pub unrecoverable: u64,
    /// Latent sector errors repaired by rewriting the chunk.
    pub latent_repaired: u64,
    /// Bytes written back by repairs (healed + latent rewrites).
    pub heal_write_bytes: u64,
    /// Sum over detections of ops elapsed since each corruption was
    /// injected (detection latency, op clock).
    pub detection_latency_ops: u64,
    /// The step did nothing because a rebuild is in flight (rebuild I/O
    /// has priority; scrub resumes after).
    pub paused_for_rebuild: bool,
    /// The pass covered its last stripe during this step.
    pub pass_complete: bool,
}

impl ScrubStep {
    /// A step that declined to run because the array is rebuilding.
    pub fn paused() -> Self {
        Self { paused_for_rebuild: true, ..Default::default() }
    }
}

/// Deterministic, seedable fault schedule.
///
/// Operations are counted by the array (`record_op` on every chunk write
/// and read); schedules are expressed against that counter so the same
/// plan replayed over the same workload injects the same faults.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// RNG seed for the transient-error draw.
    seed: u64,
    /// Device → operation index at which it fails permanently.
    fail_at_op: BTreeMap<usize, u64>,
    /// Probability in [0, 1] that any single chunk read raises a
    /// transient error (retry succeeds).
    transient_read_prob: f64,
    /// (device, stripe) pairs whose media is unreadable until rewritten.
    latent_sectors: BTreeSet<(usize, u64)>,
    /// Scheduled silent corruptions: (op, device, stripe) — the chunk at
    /// (device, stripe) silently flips bits once `op` operations have
    /// been observed. Unlike latent sectors, the device still serves the
    /// chunk; only a checksum can tell.
    #[serde(default)]
    corrupt_at_op: Vec<(u64, usize, u64)>,
    /// Operations observed so far.
    ops: u64,
    /// Deterministic RNG state (derived from `seed`).
    rng_state: u64,
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, rng_state: seed ^ 0x9e3779b97f4a7c15, ..Default::default() }
    }

    /// Schedule `device` to fail permanently once `op` operations have
    /// been observed.
    pub fn fail_device_at(mut self, device: usize, op: u64) -> Self {
        self.fail_at_op.insert(device, op);
        self
    }

    /// Schedule a correlated failure: every device in `devices` fails at
    /// the same operation (shared power rail, firmware bug, one shelf).
    /// [`Self::record_op`] reports them together in a single call.
    pub fn fail_devices_at(mut self, devices: &[usize], op: u64) -> Self {
        for &d in devices {
            self.fail_at_op.insert(d, op);
        }
        self
    }

    /// Make every chunk read raise a transient error with probability `p`.
    pub fn with_transient_read_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.transient_read_prob = p;
        self
    }

    /// Mark (device, stripe) as a latent sector error: direct reads of
    /// that chunk fail until it is rewritten (e.g. by a rebuild).
    pub fn with_latent_sector(mut self, device: usize, stripe: u64) -> Self {
        self.add_latent_sector(device, stripe);
        self
    }

    /// Inject a latent sector error on an existing plan (media degrades
    /// after the data was written).
    pub fn add_latent_sector(&mut self, device: usize, stripe: u64) {
        self.latent_sectors.insert((device, stripe));
    }

    /// Schedule a silent corruption of the chunk at (device, stripe)
    /// once `op` operations have been observed.
    pub fn with_corruption_at(mut self, op: u64, device: usize, stripe: u64) -> Self {
        self.corrupt_at_op.push((op, device, stripe));
        self
    }

    /// Drain corruption events whose scheduled op has been reached.
    /// Arrays call this right after [`Self::record_op`] and flip bytes in
    /// (or mark as corrupted) each returned (device, stripe).
    pub fn take_due_corruptions(&mut self) -> Vec<(usize, u64)> {
        let mut due = Vec::new();
        self.corrupt_at_op.retain(|&(op, device, stripe)| {
            if op <= self.ops {
                due.push((device, stripe));
                false
            } else {
                true
            }
        });
        due
    }

    /// Corruption events not yet injected.
    pub fn pending_corruptions(&self) -> usize {
        self.corrupt_at_op.len()
    }

    /// The seed this plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Advance the operation counter; returns devices whose scheduled
    /// failure op has now been reached.
    pub fn record_op(&mut self) -> Vec<usize> {
        self.ops += 1;
        let due: Vec<usize> =
            self.fail_at_op.iter().filter(|&(_, &op)| op <= self.ops).map(|(&d, _)| d).collect();
        for d in &due {
            self.fail_at_op.remove(d);
        }
        due
    }

    /// Deterministic draw: does this read raise a transient error?
    pub fn transient_read_fires(&mut self) -> bool {
        if self.transient_read_prob <= 0.0 {
            return false;
        }
        let draw = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        draw < self.transient_read_prob
    }

    /// Whether (device, stripe) has an outstanding latent sector error.
    pub fn is_latent(&self, device: usize, stripe: u64) -> bool {
        self.latent_sectors.contains(&(device, stripe))
    }

    /// Clear a latent sector error (the chunk was rewritten).
    pub fn clear_latent(&mut self, device: usize, stripe: u64) {
        self.latent_sectors.remove(&(device, stripe));
    }

    /// Outstanding latent sector errors.
    pub fn latent_count(&self) -> usize {
        self.latent_sectors.len()
    }

    /// Outstanding latent sector errors, as (device, stripe) pairs. The
    /// rebuild driver uses this to order its sweep most-exposed-first.
    pub fn latent_entries(&self) -> impl Iterator<Item = &(usize, u64)> + '_ {
        self.latent_sectors.iter()
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: deterministic, cheap, good enough for fault draws.
        self.rng_state = self.rng_state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.rng_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_fails_at_scheduled_op() {
        let mut p = FaultPlan::new(1).fail_device_at(2, 3);
        assert!(p.record_op().is_empty());
        assert!(p.record_op().is_empty());
        assert_eq!(p.record_op(), vec![2]);
        assert!(p.record_op().is_empty(), "failure fires once");
    }

    #[test]
    fn transient_draw_is_deterministic() {
        let draws = |seed| {
            let mut p = FaultPlan::new(seed).with_transient_read_prob(0.3);
            (0..64).map(|_| p.transient_read_fires()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        let fired = draws(7).iter().filter(|&&b| b).count();
        assert!(fired > 5 && fired < 40, "p=0.3 over 64 draws fired {fired}");
    }

    #[test]
    fn zero_probability_never_fires() {
        let mut p = FaultPlan::new(3);
        assert!((0..100).all(|_| !p.transient_read_fires()));
    }

    #[test]
    fn latent_sectors_clear_on_rewrite() {
        let mut p = FaultPlan::new(0).with_latent_sector(1, 42);
        assert!(p.is_latent(1, 42));
        assert!(!p.is_latent(1, 43));
        p.clear_latent(1, 42);
        assert!(!p.is_latent(1, 42));
        assert_eq!(p.latent_count(), 0);
    }

    #[test]
    fn health_reports_failed_device() {
        assert_eq!(ArrayHealth::Healthy.failed_device(), None);
        assert_eq!(ArrayHealth::Degraded { device: 2 }.failed_device(), Some(2));
        assert_eq!(ArrayHealth::Rebuilding { device: 1 }.failed_device(), Some(1));
    }

    #[test]
    fn read_outcome_byte_accounting() {
        let normal = ReadOutcome::normal(65536);
        assert_eq!(normal.device_bytes_read, 65536);
        let recon = ReadOutcome::reconstructed(65536, 3);
        assert_eq!(recon.device_bytes_read, 3 * 65536);
        assert_eq!(recon.mode, ReadMode::Reconstructed);
        let healed = ReadOutcome::healed(65536, 3);
        assert_eq!(healed.device_bytes_read, 4 * 65536, "bad chunk + survivors");
        assert_eq!(healed.mode, ReadMode::Healed);
    }

    #[test]
    fn corruption_fires_at_scheduled_op() {
        let mut p = FaultPlan::new(5).with_corruption_at(2, 1, 10).with_corruption_at(4, 3, 20);
        assert_eq!(p.pending_corruptions(), 2);
        p.record_op();
        assert!(p.take_due_corruptions().is_empty());
        p.record_op();
        assert_eq!(p.take_due_corruptions(), vec![(1, 10)]);
        assert_eq!(p.pending_corruptions(), 1);
        p.record_op();
        p.record_op();
        assert_eq!(p.take_due_corruptions(), vec![(3, 20)]);
        assert!(p.take_due_corruptions().is_empty(), "each event fires once");
    }

    #[test]
    fn correlated_failures_fire_together() {
        let mut p = FaultPlan::new(9).fail_devices_at(&[1, 3], 2);
        assert!(p.record_op().is_empty());
        assert_eq!(p.record_op(), vec![1, 3], "both devices down in one op");
        assert!(p.record_op().is_empty());
    }

    #[test]
    fn disk_state_summary() {
        use DiskState::*;
        assert_eq!(ArrayHealth::from_disk_states(&[Healthy, Healthy]), ArrayHealth::Healthy);
        assert_eq!(
            ArrayHealth::from_disk_states(&[Healthy, Draining]),
            ArrayHealth::Healthy,
            "draining is planned, not a fault"
        );
        assert_eq!(
            ArrayHealth::from_disk_states(&[Healthy, Failed, Failed]),
            ArrayHealth::Degraded { device: 1 }
        );
        assert_eq!(
            ArrayHealth::from_disk_states(&[Failed, Rebuilding]),
            ArrayHealth::Rebuilding { device: 1 }
        );
        assert!(Failed.is_erased() && Rebuilding.is_erased());
        assert!(!Healthy.is_erased() && !Draining.is_erased());
    }

    #[test]
    fn scrub_step_paused_marker() {
        let step = ScrubStep::paused();
        assert!(step.paused_for_rebuild);
        assert_eq!(step.stripes_scrubbed, 0);
        assert!(!step.pass_complete);
    }
}

//! Trace-driven simulation harness.
//!
//! Ties the stack together: workload suites (`adapt-trace`) are replayed
//! through the log-structured engine (`adapt-lss`) under each placement
//! policy (`adapt-placement`, `adapt-core`), and the resulting metrics are
//! aggregated into the figures of the paper's evaluation (§4).
//!
//! The per-volume runs of a sweep are independent, so [`runner`] fans them
//! out across cores on the vendored work-stealing pool (`vendor/rayon`) —
//! a full Fig. 8 sweep is `6 schemes × 2 GC policies × 3 suites × 50
//! volumes = 1800` simulations. Each replay point seeds its own RNG, so
//! sweep results are bit-identical at any `--jobs` count (see [`runner`]'s
//! determinism contract).

pub mod compare;
pub mod consolidate;
pub mod crash;
pub mod faults;
pub mod gc_sweep;
pub mod multistream;
pub mod replay;
pub mod report;
pub mod runner;
pub mod scheme;
pub mod scrub;
pub mod serve;
pub mod throughput;

pub use crash::{
    crash_point, run_crash_sweep, CrashPointResult, CrashScenario, CrashSweepReport,
    ServerTopology, Topology,
};
pub use faults::{run_fault_scenario, FaultReport, FaultScenario, PhaseReport, VerifySweep};
pub use replay::{drive, drive_with, replay_volume, ReplayConfig, VolumeResult, Warmup};
pub use report::{write_run_report, RunReport};
pub use runner::{run_suite, SuiteResult};
pub use scheme::{Scheme, SchemePolicy};
pub use scrub::{run_scrub_scenario, ScrubReport, ScrubScenario};
pub use serve::{run_serve_replay, ServeReplayConfig, ServeReplayResult};

//! Trace substrate for the ADAPT reproduction.
//!
//! This crate provides everything the simulator and prototype consume as
//! *input*: the block-level trace record model, deterministic pseudo-random
//! number generation, Zipfian and YCSB-style workload generators, and three
//! synthetic workload *suites* calibrated to the statistics the ADAPT paper
//! reports for the Alibaba, Tencent, and MSRC production traces (Fig. 2).
//!
//! The public traces themselves are not redistributable/downloadable in this
//! environment, so the suites are synthetic volume populations whose
//! per-volume request-rate CDF, write-size CDF, skew, and read/write mix are
//! calibrated to the paper's reported marginals (see `suites`). Placement
//! policies only ever observe `(timestamp, op, lba, length)`, so matching
//! those marginals exercises the same code paths as the original traces.
//!
//! Everything here is deterministic given a seed: generators are pure
//! functions of `(seed, index)` so experiments are exactly reproducible.

#![forbid(unsafe_code)]

pub mod arrival;
pub mod formats;
pub mod record;
pub mod rng;
pub mod size_dist;
pub mod stats;
pub mod suites;
pub mod volume;
pub mod ycsb;
pub mod zipf;

pub use record::{OpType, TraceRecord, BLOCK_SIZE};
pub use rng::SplitMix64;
pub use suites::{SuiteKind, WorkloadSuite};
pub use volume::{VolumeModel, VolumeTrace};
pub use ycsb::{YcsbConfig, YcsbGenerator};
pub use zipf::ZipfGenerator;

//! Umbrella crate for the ADAPT reproduction workspace.
//!
//! Re-exports the member crates so examples and integration tests can use a
//! single import root. See the individual crates for the real functionality:
//!
//! * [`adapt_trace`] — workload model and synthetic trace suites.
//! * [`adapt_array`] — SSD array (RAID-5 chunk/stripe) substrate.
//! * [`adapt_lss`] — log-structured storage engine with GC.
//! * [`adapt_placement`] — baseline placement policies (SepGC, DAC, WARCIP,
//!   MiDA, SepBIT).
//! * [`adapt_core`] — the ADAPT placement policy itself.
//! * [`adapt_sim`] — trace-driven experiment runner.
//! * [`adapt_serve`] — sharded multi-tenant serving layer.

#![forbid(unsafe_code)]

pub use adapt_array as array;
pub use adapt_core as adapt;
pub use adapt_lss as lss;
pub use adapt_placement as placement;
pub use adapt_serve as serve;
pub use adapt_sim as sim;
pub use adapt_trace as trace;

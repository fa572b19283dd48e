//! Baseline data-placement policies.
//!
//! Reimplementations of the five schemes the ADAPT paper compares against
//! (§4.1), each with its original default group configuration:
//!
//! | Policy  | Groups | Separation signal |
//! |---------|--------|-------------------|
//! | SepGC   | 1 user + 1 GC | user vs GC writes only |
//! | DAC     | 5 mixed       | access counts (promote on update, demote on GC) |
//! | WARCIP  | 5 user + 1 GC | rewrite-interval clustering (online k-means) |
//! | MiDA    | 8 mixed       | migration counts (block age) |
//! | SepBIT  | 2 user + 4 GC | inferred block invalidation time + residual lifespan |
//!
//! All of them pad on SLA expiry (the engine default) — none performs
//! cross-group aggregation; that is ADAPT's contribution (`adapt-core`).

#![forbid(unsafe_code)]

pub mod dac;
pub mod lba_table;
pub mod mida;
pub mod sepbit;
pub mod sepgc;
pub mod warcip;

pub use dac::Dac;
pub use lba_table::LbaTable;
pub use mida::Mida;
pub use sepbit::SepBit;
pub use sepgc::SepGc;
pub use warcip::Warcip;

//! Typed errors for the array layer.
//!
//! The read/write paths of [`crate::store`], [`crate::ftl`], and the
//! [`crate::sink::ArraySink`] trait return these instead of panicking, so
//! the log-structured layer above can degrade gracefully (serve the read
//! via parity reconstruction, retry a transient error, or surface data
//! loss to the caller) rather than crash the process.

use crate::layout::ChunkLocation;
use std::fmt;

/// Error raised by array read/write paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrayError {
    /// The chunk's home device has failed and the stripe cannot be
    /// reconstructed (incomplete stripe: parity was never generated).
    Unreconstructable { loc: ChunkLocation },
    /// Two or more devices are failed: RAID-5 cannot recover.
    DoubleFault { loc: ChunkLocation },
    /// The location was never written.
    MissingChunk { loc: ChunkLocation },
    /// A transient device error: the same read is expected to succeed if
    /// retried after a backoff.
    TransientRead { loc: ChunkLocation },
    /// A latent sector error: the chunk's media is unreadable on its home
    /// device until rewritten, but survivors can reconstruct it.
    LatentSector { loc: ChunkLocation },
    /// The chunk failed its checksum and the stripe survivors could not
    /// produce a copy that verifies (a second fault hides the truth).
    ChecksumMismatch { loc: ChunkLocation },
    /// A device's FTL ran out of free erase blocks.
    OutOfSpace { device: usize },
    /// A logical page number beyond the device's capacity.
    LpnOutOfRange { lpn: u64, capacity: u64 },
    /// A rebuild was requested while no device is failed, or targeting a
    /// healthy device.
    NotDegraded,
    /// The durable backend failed outside RAID semantics (power loss,
    /// filesystem error, or an unrepairable record during recovery).
    Storage { failure: StorageFailure },
}

/// Why a durable backend operation failed. A small `Copy` classification:
/// rich context (paths, offsets) lives in the backend's own error type
/// (`file_sink::FileSinkError`); this is what crosses the sink trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFailure {
    /// Simulated power loss: the write budget ran out.
    PowerLoss,
    /// A real filesystem error.
    Io,
    /// A record or superblock failed CRC/shape validation.
    BadRecord,
    /// Recovery needed a record that neither disk nor WAL can supply.
    MissingRecord,
    /// The sink does not support this durability operation.
    Unsupported,
}

impl fmt::Display for StorageFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageFailure::PowerLoss => write!(f, "simulated power loss"),
            StorageFailure::Io => write!(f, "filesystem I/O error"),
            StorageFailure::BadRecord => write!(f, "corrupt on-disk record"),
            StorageFailure::MissingRecord => write!(f, "unrecoverable missing record"),
            StorageFailure::Unsupported => write!(f, "operation unsupported by this sink"),
        }
    }
}

/// Uniform retryability classification across the whole error lattice
/// (`MediaError` → `FileSinkError` → `ArrayError` → `EngineError`).
///
/// One question, answered once per type: *can retrying the exact same
/// operation, after a backoff and with no state change, succeed?* Layers
/// that wrap a lower error delegate to it instead of re-matching the
/// wrapped variants, so a new transient fault added at the bottom is
/// classified correctly everywhere above without touching the wrappers.
pub trait Retryable {
    /// Whether retrying the same operation (after a backoff) can succeed
    /// without any state change.
    fn is_retryable(&self) -> bool;
}

impl Retryable for ArrayError {
    fn is_retryable(&self) -> bool {
        matches!(self, ArrayError::TransientRead { .. })
    }
}

impl Retryable for ParityError {
    /// Parity-math errors are malformed inputs, never transient.
    fn is_retryable(&self) -> bool {
        false
    }
}

impl fmt::Display for ArrayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrayError::Unreconstructable { loc } => write!(
                f,
                "chunk (stripe {}, device {}) on failed device and stripe incomplete",
                loc.stripe, loc.device
            ),
            ArrayError::DoubleFault { loc } => write!(
                f,
                "chunk (stripe {}, device {}) unrecoverable: multiple devices failed",
                loc.stripe, loc.device
            ),
            ArrayError::MissingChunk { loc } => {
                write!(f, "chunk (stripe {}, device {}) was never written", loc.stripe, loc.device)
            }
            ArrayError::TransientRead { loc } => {
                write!(f, "transient read error at (stripe {}, device {})", loc.stripe, loc.device)
            }
            ArrayError::LatentSector { loc } => {
                write!(f, "latent sector error at (stripe {}, device {})", loc.stripe, loc.device)
            }
            ArrayError::ChecksumMismatch { loc } => write!(
                f,
                "checksum mismatch at (stripe {}, device {}) and survivors cannot repair it",
                loc.stripe, loc.device
            ),
            ArrayError::OutOfSpace { device } => {
                write!(f, "device {device}: FTL free pool exhausted")
            }
            ArrayError::LpnOutOfRange { lpn, capacity } => {
                write!(f, "LPN {lpn} beyond device capacity {capacity}")
            }
            ArrayError::NotDegraded => write!(f, "rebuild requested but no device is failed"),
            ArrayError::Storage { failure } => write!(f, "durable backend failure: {failure}"),
        }
    }
}

impl std::error::Error for ArrayError {}

/// Error raised by the parity/erasure-coding math on malformed stripes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParityError {
    /// A stripe with zero chunks has no parity.
    EmptyStripe,
    /// Chunks within one stripe must have equal lengths.
    LengthMismatch { expected: usize, got: usize },
    /// A Reed-Solomon decode was asked to run with fewer surviving
    /// chunks than the code's `k` — more than `m` losses.
    NotEnoughShards { have: usize, need: usize },
    /// The survivor submatrix was singular. The shipped matrix
    /// constructions (Vandermonde for m ≤ 2, Cauchy beyond) make this
    /// unreachable; it exists so the decoder degrades typed instead of
    /// panicking if a future construction regresses.
    SingularMatrix,
}

impl fmt::Display for ParityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParityError::EmptyStripe => write!(f, "stripe must have at least one data chunk"),
            ParityError::LengthMismatch { expected, got } => {
                write!(f, "parity operands must be equal length ({expected} vs {got})")
            }
            ParityError::NotEnoughShards { have, need } => {
                write!(f, "erasure decode needs {need} surviving chunks, have {have}")
            }
            ParityError::SingularMatrix => {
                write!(f, "erasure-decode matrix is singular (invalid code construction)")
            }
        }
    }
}

impl std::error::Error for ParityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let loc = ChunkLocation { stripe: 7, device: 2, column: 1 };
        assert!(ArrayError::DoubleFault { loc }.to_string().contains("stripe 7"));
        assert!(ArrayError::OutOfSpace { device: 3 }.to_string().contains("device 3"));
        assert!(ParityError::LengthMismatch { expected: 8, got: 9 }.to_string().contains("8"));
    }

    #[test]
    fn transient_classification() {
        let loc = ChunkLocation { stripe: 0, device: 0, column: 0 };
        assert!(ArrayError::TransientRead { loc }.is_retryable());
        assert!(!ArrayError::DoubleFault { loc }.is_retryable());
        assert!(
            !ArrayError::ChecksumMismatch { loc }.is_retryable(),
            "retrying re-reads the same corrupted media"
        );
    }

    #[test]
    fn checksum_mismatch_display_names_location() {
        let loc = ChunkLocation { stripe: 9, device: 1, column: 0 };
        let msg = ArrayError::ChecksumMismatch { loc }.to_string();
        assert!(msg.contains("checksum"), "{msg}");
        assert!(msg.contains("stripe 9"), "{msg}");
    }
}

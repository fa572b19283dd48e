//! Typed engine errors.
//!
//! The engine's data paths report failures instead of panicking: index
//! corruption (an internal invariant broke), free-pool exhaustion (the
//! configuration cannot sustain the workload), or an array-layer fault
//! (device failure, unreconstructable stripe) bubbling up from the sink.
//!
//! After an [`EngineError::IndexCorruption`] the engine's internal state
//! is suspect and the instance should be discarded; the other variants
//! leave the engine consistent — `OutOfSpace` callers may TRIM and retry,
//! and transient array errors (see [`EngineError::is_transient`]) are
//! retried internally, up to three times.

use crate::types::Lba;
use crate::wal::WalError;
use adapt_array::{ArrayError, FileSinkError, MediaError, Retryable};

/// Errors surfaced by the engine's fallible (`try_*`) entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An internal invariant between the block index, group buffers, and
    /// segment slots broke. Engine state is undefined afterwards.
    IndexCorruption {
        /// The block whose bookkeeping is inconsistent.
        lba: Lba,
        /// What the engine expected versus what it found.
        detail: String,
    },
    /// The free-segment pool is empty and GC cannot reclaim anything:
    /// the configuration's over-provisioning or GC watermarks cannot
    /// sustain the workload. The flush that needed the segment is left
    /// unperformed (pending blocks stay buffered).
    OutOfSpace {
        /// Total physical segments.
        total_segments: usize,
        /// Segments currently sealed.
        sealed: usize,
        /// Sealed segments holding at least one garbage block.
        sealed_with_garbage: usize,
        /// Segments currently open.
        open: usize,
        /// Live blocks across all segments.
        valid_blocks: u64,
        /// Whether the failure happened inside a GC pass.
        in_gc: bool,
    },
    /// The array sink failed a read or reconstruction.
    Array(ArrayError),
    /// The write-ahead log (or a checkpoint write) failed. Already-acked
    /// writes are durable; the failed operation is not.
    Wal(WalError),
}

impl Retryable for EngineError {
    /// Delegates to the wrapped layer instead of re-matching its variants:
    /// the engine's own failures (corruption, exhaustion) are persistent,
    /// and everything else is whatever the layer below says it is.
    fn is_retryable(&self) -> bool {
        match self {
            EngineError::Array(e) => e.is_retryable(),
            EngineError::Wal(e) => e.is_retryable(),
            EngineError::IndexCorruption { .. } | EngineError::OutOfSpace { .. } => false,
        }
    }
}

impl Retryable for WalError {
    /// Power loss ends the run; I/O and framing errors reproduce on
    /// reissue. Nothing in the log path is worth spinning on.
    fn is_retryable(&self) -> bool {
        false
    }
}

impl EngineError {
    /// Whether retrying the same operation may succeed. Alias for
    /// [`Retryable::is_retryable`], kept for call sites predating the
    /// trait.
    pub fn is_transient(&self) -> bool {
        self.is_retryable()
    }
}

impl From<ArrayError> for EngineError {
    fn from(e: ArrayError) -> Self {
        EngineError::Array(e)
    }
}

impl From<WalError> for EngineError {
    fn from(e: WalError) -> Self {
        EngineError::Wal(e)
    }
}

impl From<FileSinkError> for EngineError {
    fn from(e: FileSinkError) -> Self {
        EngineError::Array(ArrayError::from(e))
    }
}

impl From<MediaError> for EngineError {
    fn from(e: MediaError) -> Self {
        EngineError::Array(ArrayError::from(e))
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::IndexCorruption { lba, detail } => {
                write!(f, "block index corruption at lba {lba}: {detail}")
            }
            EngineError::OutOfSpace {
                total_segments,
                sealed,
                sealed_with_garbage,
                open,
                valid_blocks,
                in_gc,
            } => write!(
                f,
                "free-segment pool exhausted (total {total_segments} sealed {sealed} \
                 sealed-with-garbage {sealed_with_garbage} open {open} valid-blocks \
                 {valid_blocks} in_gc {in_gc}): raise op_ratio or gc watermarks"
            ),
            EngineError::Array(e) => write!(f, "array fault: {e}"),
            EngineError::Wal(e) => write!(f, "write-ahead log fault: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Array(e) => Some(e),
            EngineError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_array::ChunkLocation;

    #[test]
    fn transient_classification() {
        let loc = ChunkLocation { stripe: 0, device: 1, column: 0 };
        assert!(EngineError::from(ArrayError::TransientRead { loc }).is_transient());
        assert!(!EngineError::from(ArrayError::DoubleFault { loc }).is_transient());
        assert!(!EngineError::IndexCorruption { lba: 3, detail: "x".into() }.is_transient());
    }

    #[test]
    fn checksum_mismatch_is_persistent() {
        // Retrying a checksum mismatch re-reads the same corrupted media:
        // the engine must surface it, never spin in the retry loop.
        let loc = ChunkLocation { stripe: 4, device: 2, column: 1 };
        let e = EngineError::from(ArrayError::ChecksumMismatch { loc });
        assert!(!e.is_transient());
        let s = e.to_string();
        assert!(s.contains("checksum") && s.contains("stripe 4"), "{s}");
        assert!(std::error::Error::source(&e).is_some(), "array cause preserved");
    }

    #[test]
    fn from_lattice_reaches_engine_error() {
        // Every lower layer converts into EngineError through one chain:
        // MediaError → FileSinkError → ArrayError → EngineError.
        let e = EngineError::from(MediaError::PowerLoss);
        assert!(matches!(
            e,
            EngineError::Array(ArrayError::Storage {
                failure: adapt_array::StorageFailure::PowerLoss
            })
        ));
        assert!(!e.is_retryable());
        let e = EngineError::from(FileSinkError::MissingRecord { chunk_seq: 9 });
        assert!(matches!(
            e,
            EngineError::Array(ArrayError::Storage {
                failure: adapt_array::StorageFailure::MissingRecord
            })
        ));
        let e = EngineError::from(WalError::PowerLoss);
        assert!(!e.is_retryable());
    }

    #[test]
    fn retryable_delegates_down_the_lattice() {
        let loc = ChunkLocation { stripe: 0, device: 1, column: 0 };
        assert!(EngineError::from(ArrayError::TransientRead { loc }).is_retryable());
        assert!(!EngineError::from(ArrayError::ChecksumMismatch { loc }).is_retryable());
        assert!(!WalError::PowerLoss.is_retryable());
        assert!(!MediaError::Io("disk on fire".into()).is_retryable());
    }

    #[test]
    fn display_is_informative() {
        let e = EngineError::OutOfSpace {
            total_segments: 10,
            sealed: 9,
            sealed_with_garbage: 0,
            open: 1,
            valid_blocks: 1280,
            in_gc: false,
        };
        let s = e.to_string();
        assert!(s.contains("exhausted") && s.contains("op_ratio"));
        let source = EngineError::Array(ArrayError::NotDegraded);
        assert!(std::error::Error::source(&source).is_some());
    }
}

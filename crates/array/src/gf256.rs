//! GF(2^8) arithmetic and bulk multiply-accumulate kernels.
//!
//! The Reed-Solomon codec ([`crate::rs`]) reduces every encode, update,
//! and reconstruction to one primitive over chunk-sized buffers:
//! `acc[i] ^= c · src[i]` in GF(256) (polynomial 0x11D, generator 2 — the
//! field every RS storage system uses). This module provides that
//! primitive with the same shape as the parity XOR kernels in
//! [`crate::parity`]: a strict scalar reference (`gf_mul_into_scalar`),
//! SIMD tiers selected once through [`crate::cpu_features`], and
//! differential tests pinning every tier to the reference across lengths
//! and alignments.
//!
//! The SIMD tiers use the classic split-nibble table trick: for a fixed
//! coefficient `c`, `c·b = c·(b_hi·16) ⊕ c·b_lo`, so two 16-entry lookup
//! tables (products of `c` with every low nibble and every high nibble)
//! turn a field multiply into two byte shuffles and a XOR. `PSHUFB` does
//! sixteen of those lookups per instruction (SSSE3), `VPSHUFB` thirty-two
//! (AVX2). Multiplying by 0 is a no-op and by 1 a plain XOR, so those
//! coefficients short-circuit to nothing / [`crate::parity::xor_into`] —
//! which keeps the m = 1 (RAID-5) path byte-identical to the existing
//! parity kernels.
//!
//! A decode is a whole coefficient *vector* applied to `k` survivors, and
//! [`gf_dot_into`] does it in one pass: the same nibble tables, four
//! sources folded in registers per group, the output stored once instead
//! of zero-filled and then read and rewritten once per survivor.
//!
//! A decode the store trusts also needs the CRC32C of every survivor (a
//! corrupt one would decode to garbage) and of the result (checked against
//! the lost chunk's own CRC). [`gf_dot_crc_into`] computes all of them in
//! the same pass as the dot product, so each survivor byte leaves memory
//! once instead of three times (verify, decode, verify).

use crate::{crc, parity};

/// The AES/RS field polynomial x^8 + x^4 + x^3 + x^2 + 1.
const POLY: u16 = 0x11D;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Duplicate the cycle so `exp[log a + log b]` never needs a mod 255.
    let mut j = 255;
    while j < 510 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
/// `GF_EXP[i] = 2^i` for `i < 255`, duplicated once so products of two
/// logs index without reduction.
const GF_EXP: [u8; 512] = TABLES.0;
/// `GF_LOG[x] = log_2 x` for `x != 0` (`GF_LOG[0]` is unused).
const GF_LOG: [u8; 256] = TABLES.1;

/// Field multiply.
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    GF_EXP[GF_LOG[a as usize] as usize + GF_LOG[b as usize] as usize]
}

/// Multiplicative inverse. Panics on 0 (no inverse exists).
#[inline]
pub fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "0 has no inverse in GF(256)");
    GF_EXP[255 - GF_LOG[a as usize] as usize]
}

/// Field division `a / b`. Panics when `b == 0`.
#[inline]
pub fn gf_div(a: u8, b: u8) -> u8 {
    gf_mul(a, gf_inv(b))
}

/// `base^exp` by repeated squaring (exponents are small: matrix rows).
pub fn gf_pow(base: u8, mut exp: u32) -> u8 {
    let mut acc = 1u8;
    let mut b = base;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = gf_mul(acc, b);
        }
        b = gf_mul(b, b);
        exp >>= 1;
    }
    acc
}

/// The split-nibble product tables for a fixed coefficient: `lo[x] = c·x`
/// and `hi[x] = c·(x·16)` for every nibble `x`.
#[inline]
fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    let mut x = 0usize;
    while x < 16 {
        lo[x] = gf_mul(c, x as u8);
        hi[x] = gf_mul(c, (x << 4) as u8);
        x += 1;
    }
    (lo, hi)
}

/// `acc[i] ^= c · src[i]` over equal-length slices, dispatched to the
/// widest kernel the CPU offers. `c = 0` is a no-op and `c = 1` is the
/// plain parity XOR. Panics on length mismatch.
pub fn gf_mul_into(acc: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(acc.len(), src.len(), "gf_mul_into operands must be equal length");
    match c {
        0 => {}
        1 => parity::xor_into(acc, src),
        _ => gf_mul_into_unchecked(acc, src, c),
    }
}

fn gf_mul_into_unchecked(acc: &mut [u8], src: &[u8], c: u8) {
    #[cfg(target_arch = "x86_64")]
    {
        let f = crate::cpu_features::get();
        if f.avx2 {
            // SAFETY: the probe confirmed AVX2 (which implies SSSE3).
            unsafe { gf_mul_into_avx2(acc, src, c) };
            return;
        }
        if f.ssse3 {
            // SAFETY: the probe confirmed SSSE3.
            unsafe { gf_mul_into_ssse3(acc, src, c) };
            return;
        }
    }
    gf_mul_into_scalar(acc, src, c);
}

/// The strict scalar reference every SIMD tier is pinned to: one 256-entry
/// product row for `c`, then a byte loop. Public so tests and benches can
/// call it regardless of what the CPU offers.
pub fn gf_mul_into_scalar(acc: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(acc.len(), src.len(), "gf_mul_into operands must be equal length");
    if c == 0 {
        return;
    }
    let mut row = [0u8; 256];
    if c != 1 {
        for (x, slot) in row.iter_mut().enumerate() {
            *slot = gf_mul(c, x as u8);
        }
    } else {
        for (x, slot) in row.iter_mut().enumerate() {
            *slot = x as u8;
        }
    }
    for (a, &s) in acc.iter_mut().zip(src.iter()) {
        *a ^= row[s as usize];
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn gf_mul_into_ssse3(acc: &mut [u8], src: &[u8], c: u8) {
    use std::arch::x86_64::*;
    let (lo, hi) = nibble_tables(c);
    let tbl_lo = _mm_loadu_si128(lo.as_ptr() as *const __m128i);
    let tbl_hi = _mm_loadu_si128(hi.as_ptr() as *const __m128i);
    let mask = _mm_set1_epi8(0x0F);
    let n = acc.len();
    let mut i = 0;
    while i + 16 <= n {
        let a = acc.as_mut_ptr().add(i) as *mut __m128i;
        let s = _mm_loadu_si128(src.as_ptr().add(i) as *const __m128i);
        let lo_idx = _mm_and_si128(s, mask);
        let hi_idx = _mm_and_si128(_mm_srli_epi64(s, 4), mask);
        let prod =
            _mm_xor_si128(_mm_shuffle_epi8(tbl_lo, lo_idx), _mm_shuffle_epi8(tbl_hi, hi_idx));
        _mm_storeu_si128(a, _mm_xor_si128(_mm_loadu_si128(a), prod));
        i += 16;
    }
    if i < n {
        gf_mul_into_scalar(&mut acc[i..], &src[i..], c);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gf_mul_into_avx2(acc: &mut [u8], src: &[u8], c: u8) {
    use std::arch::x86_64::*;
    let (lo, hi) = nibble_tables(c);
    // VPSHUFB shuffles within each 128-bit lane, so the 16-byte tables are
    // broadcast to both lanes.
    let tbl_lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr() as *const __m128i));
    let tbl_hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr() as *const __m128i));
    let mask = _mm256_set1_epi8(0x0F);
    let n = acc.len();
    let mut i = 0;
    while i + 64 <= n {
        let a0 = acc.as_mut_ptr().add(i) as *mut __m256i;
        let a1 = acc.as_mut_ptr().add(i + 32) as *mut __m256i;
        let s0 = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
        let s1 = _mm256_loadu_si256(src.as_ptr().add(i + 32) as *const __m256i);
        let p0 = _mm256_xor_si256(
            _mm256_shuffle_epi8(tbl_lo, _mm256_and_si256(s0, mask)),
            _mm256_shuffle_epi8(tbl_hi, _mm256_and_si256(_mm256_srli_epi64(s0, 4), mask)),
        );
        let p1 = _mm256_xor_si256(
            _mm256_shuffle_epi8(tbl_lo, _mm256_and_si256(s1, mask)),
            _mm256_shuffle_epi8(tbl_hi, _mm256_and_si256(_mm256_srli_epi64(s1, 4), mask)),
        );
        _mm256_storeu_si256(a0, _mm256_xor_si256(_mm256_loadu_si256(a0), p0));
        _mm256_storeu_si256(a1, _mm256_xor_si256(_mm256_loadu_si256(a1), p1));
        i += 64;
    }
    while i + 32 <= n {
        let a = acc.as_mut_ptr().add(i) as *mut __m256i;
        let s = _mm256_loadu_si256(src.as_ptr().add(i) as *const __m256i);
        let p = _mm256_xor_si256(
            _mm256_shuffle_epi8(tbl_lo, _mm256_and_si256(s, mask)),
            _mm256_shuffle_epi8(tbl_hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)),
        );
        _mm256_storeu_si256(a, _mm256_xor_si256(_mm256_loadu_si256(a), p));
        i += 32;
    }
    if i < n {
        gf_mul_into_scalar(&mut acc[i..], &src[i..], c);
    }
}

/// Sources one pass of the SIMD dot kernels folds: their 2 × 4 nibble
/// tables, the nibble mask and the accumulator fit the 16 vector registers.
#[cfg(target_arch = "x86_64")]
const DOT_GROUP: usize = 4;

/// `out[i] = Σ_j c_j · src_j[i]`: overwrite `out` with the GF(256) dot
/// product of a coefficient vector and equal-length sources — a
/// Reed-Solomon decode in one pass. Where [`gf_mul_into`] per source
/// re-reads and re-writes `out` once per term (after a zero fill), this
/// folds the terms in registers and stores each output byte once. All-ones
/// coefficients (every single-parity decode) stay a pure XOR. Panics on
/// length mismatch.
pub fn gf_dot_into(out: &mut [u8], terms: &[(u8, &[u8])]) {
    for &(_, src) in terms {
        assert_eq!(src.len(), out.len(), "gf_dot_into operands must be equal length");
    }
    let Some((&(_, first), rest)) = terms.split_first() else {
        out.fill(0);
        return;
    };
    if terms.iter().all(|&(c, _)| c == 1) {
        out.copy_from_slice(first);
        for &(_, src) in rest {
            parity::xor_into(out, src);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let f = crate::cpu_features::get();
        if f.avx2 {
            // SAFETY: the probe confirmed AVX2; every source was checked to
            // be `out.len()` long above.
            unsafe { gf_dot_into_avx2(out, terms) };
            return;
        }
        if f.ssse3 {
            // SAFETY: the probe confirmed SSSE3; every source was checked
            // to be `out.len()` long above.
            unsafe { gf_dot_into_ssse3(out, terms) };
            return;
        }
    }
    gf_dot_into_scalar(out, terms);
}

/// The scalar reference of [`gf_dot_into`], defined by the scalar
/// multiply-accumulate so every tier is pinned to the same primitive.
pub fn gf_dot_into_scalar(out: &mut [u8], terms: &[(u8, &[u8])]) {
    out.fill(0);
    for &(c, src) in terms {
        gf_mul_into_scalar(out, src, c);
    }
}

/// The bytes past the last whole vector, one field multiply at a time.
#[cfg(target_arch = "x86_64")]
fn gf_dot_tail(out: &mut [u8], terms: &[(u8, &[u8])], from: usize) {
    for (i, o) in out.iter_mut().enumerate().skip(from) {
        *o = terms.iter().fold(0, |acc, &(c, src)| acc ^ gf_mul(c, src[i]));
    }
}

/// The first group of sources overwrites `out`, so `terms` must not be empty.
///
/// # Safety
/// The CPU must support SSSE3 and every source must be `out.len()` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn gf_dot_into_ssse3(out: &mut [u8], terms: &[(u8, &[u8])]) {
    use std::arch::x86_64::*;
    let mask = _mm_set1_epi8(0x0F);
    let whole = out.len() - out.len() % 16;
    for (g, group) in terms.chunks(DOT_GROUP).enumerate() {
        // Unused slots keep zero tables over the group's first source, so
        // the inner loop is a fixed four-way fold.
        let mut lo = [_mm_setzero_si128(); DOT_GROUP];
        let mut hi = [_mm_setzero_si128(); DOT_GROUP];
        let mut src = [group[0].1.as_ptr(); DOT_GROUP];
        for (slot, &(c, s)) in group.iter().enumerate() {
            let (l, h) = nibble_tables(c);
            lo[slot] = _mm_loadu_si128(l.as_ptr() as *const __m128i);
            hi[slot] = _mm_loadu_si128(h.as_ptr() as *const __m128i);
            src[slot] = s.as_ptr();
        }
        let mut i = 0;
        while i < whole {
            let o = out.as_mut_ptr().add(i) as *mut __m128i;
            let mut acc = if g == 0 { _mm_setzero_si128() } else { _mm_loadu_si128(o) };
            for ((&lo, &hi), &src) in lo.iter().zip(&hi).zip(&src) {
                let s = _mm_loadu_si128(src.add(i) as *const __m128i);
                let l = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
                let h = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
                acc = _mm_xor_si128(acc, _mm_xor_si128(l, h));
            }
            _mm_storeu_si128(o, acc);
            i += 16;
        }
    }
    gf_dot_tail(out, terms, whole);
}

/// The first group of sources overwrites `out`, so `terms` must not be empty.
///
/// # Safety
/// The CPU must support AVX2 and every source must be `out.len()` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gf_dot_into_avx2(out: &mut [u8], terms: &[(u8, &[u8])]) {
    use std::arch::x86_64::*;
    let mask = _mm256_set1_epi8(0x0F);
    let whole = out.len() - out.len() % 32;
    for (g, group) in terms.chunks(DOT_GROUP).enumerate() {
        // Unused slots keep zero tables over the group's first source, so
        // the inner loop is a fixed four-way fold.
        let mut lo = [_mm256_setzero_si256(); DOT_GROUP];
        let mut hi = [_mm256_setzero_si256(); DOT_GROUP];
        let mut src = [group[0].1.as_ptr(); DOT_GROUP];
        for (slot, &(c, s)) in group.iter().enumerate() {
            let (l, h) = nibble_tables(c);
            lo[slot] = _mm256_broadcastsi128_si256(_mm_loadu_si128(l.as_ptr() as *const __m128i));
            hi[slot] = _mm256_broadcastsi128_si256(_mm_loadu_si128(h.as_ptr() as *const __m128i));
            src[slot] = s.as_ptr();
        }
        let mut i = 0;
        while i < whole {
            let o = out.as_mut_ptr().add(i) as *mut __m256i;
            let mut acc = if g == 0 { _mm256_setzero_si256() } else { _mm256_loadu_si256(o) };
            for ((&lo, &hi), &src) in lo.iter().zip(&hi).zip(&src) {
                let s = _mm256_loadu_si256(src.add(i) as *const __m256i);
                let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
                let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(s, 4), mask));
                acc = _mm256_xor_si256(acc, _mm256_xor_si256(l, h));
            }
            _mm256_storeu_si256(o, acc);
            i += 32;
        }
    }
    gf_dot_tail(out, terms, whole);
}

/// [`gf_dot_into`] that checksums in the same pass: overwrites `out` with
/// `Σ c_j · src_j`, sets `crcs[j]` to the CRC32C of `src_j`, and returns
/// the CRC32C of `out`. A zero coefficient makes its term CRC-only. With
/// AVX2 and SSE4.2 every source byte is loaded once for both; elsewhere,
/// and under `ADAPT_NO_SIMD`, it is the composition of [`gf_dot_into`] and
/// [`crc::crc32c`]. Panics on length mismatch or when `crcs` and `terms`
/// differ in length.
pub fn gf_dot_crc_into(out: &mut [u8], terms: &[(u8, &[u8])], crcs: &mut [u32]) -> u32 {
    assert_eq!(crcs.len(), terms.len(), "one CRC per term");
    for &(_, src) in terms {
        assert_eq!(src.len(), out.len(), "gf_dot_crc_into operands must be equal length");
    }
    #[cfg(target_arch = "x86_64")]
    {
        let f = crate::cpu_features::get();
        if f.avx2 && f.sse42 && terms.iter().any(|&(c, _)| c != 0) {
            // SAFETY: the probe confirmed AVX2 and SSE4.2; every source was
            // checked to be `out.len()` long and `crcs` to match `terms`.
            return unsafe { gf_dot_crc_into_avx2(out, terms, crcs) };
        }
    }
    gf_dot_into(out, terms);
    for (crc, &(_, src)) in crcs.iter_mut().zip(terms) {
        *crc = crc::crc32c(src);
    }
    crc::crc32c(out)
}

/// The fused kernel: passes over `out` 64 bytes at a time, up to four
/// sources per pass (as [`gf_dot_into_avx2`]), then the bytes past the
/// last whole step through the composition. The last pass also
/// checksums the output it has just stored. Needs a term with a nonzero
/// coefficient, or the output would never be written.
///
/// # Safety
/// The CPU must support AVX2 and SSE4.2, every source must be `out.len()`
/// long and `crcs` must be `terms.len()` long.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,sse4.2")]
unsafe fn gf_dot_crc_into_avx2(out: &mut [u8], terms: &[(u8, &[u8])], crcs: &mut [u32]) -> u32 {
    let whole = out.len() - out.len() % 64;
    crcs.fill(!0);
    let mut out_crc = !0;
    let groups = terms.len().div_ceil(DOT_GROUP);
    for (g, (group, states)) in terms.chunks(DOT_GROUP).zip(crcs.chunks_mut(DOT_GROUP)).enumerate()
    {
        let out_state = (g + 1 == groups).then_some(&mut out_crc);
        let out = &mut *out;
        match group.len() {
            1 => dot_crc_pass::<1>(out, whole, group, states, g == 0, out_state),
            2 => dot_crc_pass::<2>(out, whole, group, states, g == 0, out_state),
            3 => dot_crc_pass::<3>(out, whole, group, states, g == 0, out_state),
            _ => dot_crc_pass::<4>(out, whole, group, states, g == 0, out_state),
        }
    }
    gf_dot_tail(out, terms, whole);
    for (state, &(_, src)) in crcs.iter_mut().zip(terms) {
        *state = crc::update(*state, &src[whole..]) ^ !0;
    }
    crc::update(out_crc, &out[whole..]) ^ !0
}

/// One pass of [`gf_dot_crc_into_avx2`] over `out[..whole]` for the `N`
/// sources of `group`, advancing their running CRC states in `states`.
/// The first group overwrites `out`, later ones fold into it; the last
/// one also advances the output's running CRC, `out_crc`.
///
/// Per 64-byte step, each source is loaded once as two vectors for the
/// nibble-table dot and fed, from the same line, to its own `crc32q`
/// chain: every stream is an independent chain, so two or more sources
/// keep the CRC unit busy without splitting a buffer as [`crc::update`]
/// does. Each source is prefetched 512 bytes ahead (a hint past the end
/// cannot fault); a decode reads its survivors straight out of DRAM.
///
/// # Safety
/// As [`gf_dot_crc_into_avx2`]; `group` and `states` hold `N` entries and
/// `whole` is a multiple of 64 no larger than `out.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,sse4.2")]
unsafe fn dot_crc_pass<const N: usize>(
    out: &mut [u8],
    whole: usize,
    group: &[(u8, &[u8])],
    states: &mut [u32],
    first: bool,
    out_crc: Option<&mut u32>,
) {
    use std::arch::x86_64::*;
    const AHEAD: usize = 512;
    let mask = _mm256_set1_epi8(0x0F);
    let mut lo = [_mm256_setzero_si256(); N];
    let mut hi = [_mm256_setzero_si256(); N];
    let mut src = [std::ptr::null::<u8>(); N];
    let mut state = [0u64; N];
    for slot in 0..N {
        let (c, s) = group[slot];
        let (l, h) = nibble_tables(c);
        lo[slot] = _mm256_broadcastsi128_si256(_mm_loadu_si128(l.as_ptr() as *const __m128i));
        hi[slot] = _mm256_broadcastsi128_si256(_mm_loadu_si128(h.as_ptr() as *const __m128i));
        src[slot] = s.as_ptr();
        state[slot] = states[slot] as u64;
    }
    let mut out_state = out_crc.as_deref().map_or(0, |&s| s as u64);
    let word = |p: *const u8| u64::from_le_bytes(p.cast::<[u8; 8]>().read_unaligned());
    let mut i = 0;
    while i < whole {
        let o = out.as_mut_ptr().add(i);
        let (mut acc0, mut acc1) = if first {
            (_mm256_setzero_si256(), _mm256_setzero_si256())
        } else {
            (
                _mm256_loadu_si256(o as *const __m256i),
                _mm256_loadu_si256(o.add(32) as *const __m256i),
            )
        };
        for slot in 0..N {
            let p = src[slot].add(i);
            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(AHEAD).cast());
            let s0 = _mm256_loadu_si256(p as *const __m256i);
            let s1 = _mm256_loadu_si256(p.add(32) as *const __m256i);
            for w in 0..8 {
                state[slot] = _mm_crc32_u64(state[slot], word(p.add(8 * w)));
            }
            let (l, h) = (lo[slot], hi[slot]);
            let p0 = _mm256_xor_si256(
                _mm256_shuffle_epi8(l, _mm256_and_si256(s0, mask)),
                _mm256_shuffle_epi8(h, _mm256_and_si256(_mm256_srli_epi64(s0, 4), mask)),
            );
            let p1 = _mm256_xor_si256(
                _mm256_shuffle_epi8(l, _mm256_and_si256(s1, mask)),
                _mm256_shuffle_epi8(h, _mm256_and_si256(_mm256_srli_epi64(s1, 4), mask)),
            );
            acc0 = _mm256_xor_si256(acc0, p0);
            acc1 = _mm256_xor_si256(acc1, p1);
        }
        _mm256_storeu_si256(o as *mut __m256i, acc0);
        _mm256_storeu_si256(o.add(32) as *mut __m256i, acc1);
        if out_crc.is_some() {
            for w in 0..8 {
                out_state = _mm_crc32_u64(out_state, word(o.add(8 * w)));
            }
        }
        i += 64;
    }
    for slot in 0..N {
        states[slot] = state[slot] as u32;
    }
    if let Some(s) = out_crc {
        *s = out_state as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gf_mul_slow(a: u8, b: u8) -> u8 {
        // Carry-less schoolbook multiply with polynomial reduction —
        // independent of the log/exp tables under test.
        let mut acc = 0u16;
        let mut a = a as u16;
        let mut b = b;
        while b != 0 {
            if b & 1 == 1 {
                acc ^= a;
            }
            a <<= 1;
            if a & 0x100 != 0 {
                a ^= POLY;
            }
            b >>= 1;
        }
        acc as u8
    }

    #[test]
    fn tables_match_schoolbook_multiply() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul(a, b), gf_mul_slow(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn field_axioms_hold() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a = {a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
            assert_eq!(gf_div(a, a), 1);
        }
        // Distributivity on a sample grid.
        for a in (0..=255u8).step_by(17) {
            for b in (0..=255u8).step_by(13) {
                for c in (0..=255u8).step_by(29) {
                    assert_eq!(gf_mul(a, b ^ c), gf_mul(a, b) ^ gf_mul(a, c));
                }
            }
        }
    }

    #[test]
    fn pow_matches_repeated_multiply() {
        for e in 0..300u32 {
            let mut expect = 1u8;
            for _ in 0..e {
                expect = gf_mul(expect, 2);
            }
            assert_eq!(gf_pow(2, e), expect, "2^{e}");
        }
        assert_eq!(gf_pow(0, 0), 1);
        assert_eq!(gf_pow(0, 5), 0);
    }

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt)).collect()
    }

    #[test]
    fn dispatched_matches_scalar_all_lengths_and_offsets() {
        // Same differential sweep shape as the parity kernels: every
        // length through several vector widths, at unaligned offsets,
        // across coefficients that hit both nibble tables.
        for &c in &[0u8, 1, 2, 3, 29, 116, 0x1D, 0xFF] {
            for len in (0..=256).chain([511, 512, 513, 1024, 4096]) {
                for &off in &[0usize, 1, 3, 7] {
                    let src = pattern(len + off, 5);
                    let mut fast = pattern(len + off, 71);
                    let mut slow = fast.clone();
                    gf_mul_into(&mut fast[off..], &src[off..], c);
                    gf_mul_into_scalar(&mut slow[off..], &src[off..], c);
                    assert_eq!(fast, slow, "c={c} len={len} off={off}");
                }
            }
        }
    }

    type DotFn = fn(&mut [u8], &[(u8, &[u8])]);

    /// Every way this machine can compute a dot product: the dispatcher,
    /// plus each SIMD tier the CPU really has, called directly — so the
    /// SSSE3 kernel is exercised on AVX2 hosts and both under
    /// `ADAPT_NO_SIMD`.
    fn dot_tiers() -> Vec<(&'static str, DotFn)> {
        let mut tiers: Vec<(&'static str, DotFn)> = vec![("dispatched", gf_dot_into)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("ssse3") {
                // SAFETY: SSSE3 was detected; the sweep passes equal lengths.
                tiers.push(("ssse3", |out, terms| unsafe { gf_dot_into_ssse3(out, terms) }));
            }
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was detected; the sweep passes equal lengths.
                tiers.push(("avx2", |out, terms| unsafe { gf_dot_into_avx2(out, terms) }));
            }
        }
        tiers
    }

    #[test]
    fn dot_matches_scalar_all_lengths_offsets_and_widths() {
        // Coefficient vectors with 0s and 1s in every position class, one
        // all-ones (the pure-XOR decode), widths through two SIMD groups.
        let coeffs = [1u8, 0, 29, 1, 0xFF, 2, 116, 0x1D];
        for k in 1..=8usize {
            for all_ones in [false, true] {
                for len in (0..200).chain([4096]) {
                    for &off in &[0usize, 1, 3, 7] {
                        let srcs: Vec<Vec<u8>> =
                            (0..k).map(|j| pattern(len + off, (5 + 40 * j) as u8)).collect();
                        let terms: Vec<(u8, &[u8])> = srcs
                            .iter()
                            .enumerate()
                            .map(|(j, s)| {
                                (if all_ones { 1 } else { coeffs[(j + k) % 8] }, &s[off..])
                            })
                            .collect();
                        // Stale contents must be overwritten, not folded in.
                        let stale = pattern(len + off, 71);
                        let mut slow = stale.clone();
                        gf_dot_into_scalar(&mut slow[off..], &terms);
                        for (tier, dot) in dot_tiers() {
                            let mut fast = stale.clone();
                            dot(&mut fast[off..], &terms);
                            assert_eq!(
                                fast, slow,
                                "{tier} k={k} ones={all_ones} len={len} off={off}"
                            );
                        }
                    }
                }
            }
        }
    }

    type DotCrcFn = fn(&mut [u8], &[(u8, &[u8])], &mut [u32]) -> u32;

    /// The fused kernel's tiers on this machine: the dispatcher, plus the
    /// AVX2 + SSE4.2 kernel called directly when the CPU has both, so it
    /// is exercised under `ADAPT_NO_SIMD` too.
    fn dot_crc_tiers() -> Vec<(&'static str, DotCrcFn)> {
        let mut tiers: Vec<(&'static str, DotCrcFn)> = vec![("dispatched", gf_dot_crc_into)];
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("sse4.2") {
            // SAFETY: both features were detected; the sweep passes equal
            // lengths, one CRC slot per term and a nonzero coefficient.
            tiers.push(("avx2", |out, terms, crcs| unsafe {
                gf_dot_crc_into_avx2(out, terms, crcs)
            }));
        }
        tiers
    }

    #[test]
    fn dot_crc_matches_scalar_composition() {
        // Widths 1–9 cross the four-source group twice; the coefficient
        // rows put 0s (CRC-only terms) and 1s in every position class.
        let rows: [[u8; 9]; 3] =
            [[29, 0, 1, 0xFF, 2, 116, 0, 1, 0x1D], [1; 9], [0, 3, 0, 0, 7, 0, 0, 0, 9]];
        for len in [1usize, 63, 64, 65, 4097, 65536] {
            for &off in &[0usize, 1, 3, 7] {
                let srcs: Vec<Vec<u8>> =
                    (0..9).map(|j| pattern(len + off, (5 + 40 * j) as u8)).collect();
                for k in 1..=9usize {
                    for row in &rows {
                        if len == 65536 && (off != 3 || row[0] != 29) {
                            continue; // the long buffer once per width
                        }
                        let terms: Vec<(u8, &[u8])> =
                            row.iter().zip(&srcs).take(k).map(|(&c, s)| (c, &s[off..])).collect();
                        let stale = pattern(len + off, 71);
                        let mut slow = stale.clone();
                        gf_dot_into_scalar(&mut slow[off..], &terms);
                        let want: Vec<u32> =
                            terms.iter().map(|&(_, s)| crc::crc32c_soft(s)).collect();
                        let want_out = crc::crc32c_soft(&slow[off..]);
                        for (tier, dot_crc) in dot_crc_tiers() {
                            if tier != "dispatched" && terms.iter().all(|&(c, _)| c == 0) {
                                continue; // the kernel needs a term that writes `out`
                            }
                            let mut fast = stale.clone();
                            let mut crcs = vec![0u32; k];
                            let out_crc = dot_crc(&mut fast[off..], &terms, &mut crcs);
                            let at = format!("{tier} k={k} row={row:?} len={len} off={off}");
                            assert_eq!(fast, slow, "{at}");
                            assert_eq!(crcs, want, "{at}");
                            assert_eq!(out_crc, want_out, "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dot_crc_of_nothing_is_a_zero_chunk() {
        let mut out = pattern(100, 3);
        assert_eq!(gf_dot_crc_into(&mut out, &[], &mut []), crc::crc32c(&[0u8; 100]));
        assert_eq!(out, vec![0u8; 100]);
    }

    #[test]
    #[should_panic]
    fn dot_crc_needs_a_slot_per_term() {
        let mut out = vec![0u8; 8];
        gf_dot_crc_into(&mut out, &[(2, &[0u8; 8])], &mut []);
    }

    #[test]
    fn dot_of_nothing_is_zero() {
        let mut out = pattern(100, 3);
        gf_dot_into(&mut out, &[]);
        assert_eq!(out, vec![0u8; 100]);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        let mut out = vec![0u8; 8];
        gf_dot_into(&mut out, &[(2, &[0u8; 8]), (3, &[0u8; 9])]);
    }

    #[test]
    fn mul_by_one_is_xor() {
        let src = pattern(1000, 9);
        let mut a = pattern(1000, 40);
        let mut b = a.clone();
        gf_mul_into(&mut a, &src, 1);
        parity::xor_into(&mut b, &src);
        assert_eq!(a, b);
    }

    #[test]
    fn mul_by_zero_is_noop() {
        let src = pattern(333, 2);
        let mut a = pattern(333, 77);
        let before = a.clone();
        gf_mul_into(&mut a, &src, 0);
        assert_eq!(a, before);
    }

    #[test]
    #[should_panic]
    fn length_mismatch_panics() {
        let mut a = vec![0u8; 8];
        gf_mul_into(&mut a, &[0u8; 9], 2);
    }
}

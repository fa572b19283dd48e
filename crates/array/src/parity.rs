//! XOR parity math for RAID-5 stripes, SIMD-accelerated.
//!
//! Simple single-fault-tolerant parity: the parity chunk is the bytewise
//! XOR of all data chunks in the stripe; any single missing chunk is the
//! XOR of the survivors (data and parity alike — XOR is its own inverse).
//!
//! Three kernels behind one entry point, selected once at startup through
//! the shared [`crate::cpu_features`] probe (the same pattern as the
//! SSE4.2 CRC32C in [`crate::crc`]):
//!
//! * **AVX2** — 256-bit vector XOR, 128 bytes per unrolled iteration.
//! * **SSE2** — 128-bit vector XOR, 64 bytes per unrolled iteration; the
//!   fallback on pre-AVX2 x86_64.
//! * **Scalar** — the original `u64`-word loop with a byte tail; the
//!   reference the SIMD paths are differentially tested against, the only
//!   path on non-x86 targets, and the forced path under `ADAPT_NO_SIMD`.
//!
//! All kernels tolerate arbitrary alignment (unaligned loads/stores) and
//! arbitrary lengths including odd tails — chunk sizes are multiples of 8
//! in practice, but reconstruction scratch may slice at any offset.

use crate::cpu_features;
use crate::error::ParityError;

/// XOR `src` into `acc` in place, validating operand lengths.
pub fn try_xor_into(acc: &mut [u8], src: &[u8]) -> Result<(), ParityError> {
    if acc.len() != src.len() {
        return Err(ParityError::LengthMismatch { expected: acc.len(), got: src.len() });
    }
    xor_into_unchecked(acc, src);
    Ok(())
}

/// Compute the parity chunk of a stripe, validating the inputs: the
/// stripe must be non-empty and all chunks equal length.
pub fn try_compute_parity(data: &[&[u8]]) -> Result<Vec<u8>, ParityError> {
    let (first, rest) = data.split_first().ok_or(ParityError::EmptyStripe)?;
    let mut parity = first.to_vec();
    for chunk in rest {
        try_xor_into(&mut parity, chunk)?;
    }
    Ok(parity)
}

/// Reconstruct one missing chunk from the stripe's survivors, validating
/// the inputs (see [`try_compute_parity`]; XOR is its own inverse, so the
/// two operations are identical).
pub fn try_reconstruct(survivors: &[&[u8]]) -> Result<Vec<u8>, ParityError> {
    try_compute_parity(survivors)
}

/// XOR `src` into `acc` in place.
///
/// # Panics
/// Panics if lengths differ; use [`try_xor_into`] on untrusted inputs.
pub fn xor_into(acc: &mut [u8], src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "parity operands must be equal length");
    xor_into_unchecked(acc, src);
}

/// Dispatch to the widest kernel the CPU offers. The probe result is a
/// cached static, so this is one load and a predictable branch.
fn xor_into_unchecked(acc: &mut [u8], src: &[u8]) {
    debug_assert_eq!(acc.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    {
        let f = cpu_features::get();
        if f.avx2 {
            // SAFETY: AVX2 presence was verified at runtime just above.
            unsafe { xor_into_avx2(acc, src) };
            return;
        }
        if f.sse2 {
            // SAFETY: SSE2 presence was verified at runtime just above.
            unsafe { xor_into_sse2(acc, src) };
            return;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = cpu_features::get();
    xor_into_scalar(acc, src);
}

/// The scalar reference kernel: `u64` words, byte tail. Public so the
/// property tests can compare the SIMD paths against it regardless of
/// what the host CPU supports; prefer [`xor_into`].
pub fn xor_into_scalar(acc: &mut [u8], src: &[u8]) {
    assert_eq!(acc.len(), src.len(), "parity operands must be equal length");
    let words = acc.len() / 8;
    let (acc_head, acc_tail) = acc.split_at_mut(words * 8);
    let (src_head, src_tail) = src.split_at(words * 8);
    for (a, s) in acc_head.chunks_exact_mut(8).zip(src_head.chunks_exact(8)) {
        let av = u64::from_ne_bytes(a.try_into().unwrap());
        let sv = u64::from_ne_bytes(s.try_into().unwrap());
        a.copy_from_slice(&(av ^ sv).to_ne_bytes());
    }
    for (a, s) in acc_tail.iter_mut().zip(src_tail) {
        *a ^= s;
    }
}

/// AVX2 kernel: 4 × 32-byte unaligned vector XORs per iteration (128 B),
/// then single vectors, then the scalar tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xor_into_avx2(acc: &mut [u8], src: &[u8]) {
    use std::arch::x86_64::{__m256i, _mm256_loadu_si256, _mm256_storeu_si256, _mm256_xor_si256};
    let len = acc.len();
    let a = acc.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0usize;
    while i + 128 <= len {
        let pa = a.add(i) as *mut __m256i;
        let ps = s.add(i) as *const __m256i;
        // Unaligned load/store throughout: callers slice at arbitrary
        // offsets (reconstruction scratch, odd chunk geometries).
        let v0 = _mm256_xor_si256(_mm256_loadu_si256(pa), _mm256_loadu_si256(ps));
        let v1 = _mm256_xor_si256(_mm256_loadu_si256(pa.add(1)), _mm256_loadu_si256(ps.add(1)));
        let v2 = _mm256_xor_si256(_mm256_loadu_si256(pa.add(2)), _mm256_loadu_si256(ps.add(2)));
        let v3 = _mm256_xor_si256(_mm256_loadu_si256(pa.add(3)), _mm256_loadu_si256(ps.add(3)));
        _mm256_storeu_si256(pa, v0);
        _mm256_storeu_si256(pa.add(1), v1);
        _mm256_storeu_si256(pa.add(2), v2);
        _mm256_storeu_si256(pa.add(3), v3);
        i += 128;
    }
    while i + 32 <= len {
        let pa = a.add(i) as *mut __m256i;
        let ps = s.add(i) as *const __m256i;
        _mm256_storeu_si256(pa, _mm256_xor_si256(_mm256_loadu_si256(pa), _mm256_loadu_si256(ps)));
        i += 32;
    }
    xor_into_scalar(&mut acc[i..], &src[i..]);
}

/// SSE2 kernel: 4 × 16-byte unaligned vector XORs per iteration (64 B),
/// then single vectors, then the scalar tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn xor_into_sse2(acc: &mut [u8], src: &[u8]) {
    use std::arch::x86_64::{__m128i, _mm_loadu_si128, _mm_storeu_si128, _mm_xor_si128};
    let len = acc.len();
    let a = acc.as_mut_ptr();
    let s = src.as_ptr();
    let mut i = 0usize;
    while i + 64 <= len {
        let pa = a.add(i) as *mut __m128i;
        let ps = s.add(i) as *const __m128i;
        let v0 = _mm_xor_si128(_mm_loadu_si128(pa), _mm_loadu_si128(ps));
        let v1 = _mm_xor_si128(_mm_loadu_si128(pa.add(1)), _mm_loadu_si128(ps.add(1)));
        let v2 = _mm_xor_si128(_mm_loadu_si128(pa.add(2)), _mm_loadu_si128(ps.add(2)));
        let v3 = _mm_xor_si128(_mm_loadu_si128(pa.add(3)), _mm_loadu_si128(ps.add(3)));
        _mm_storeu_si128(pa, v0);
        _mm_storeu_si128(pa.add(1), v1);
        _mm_storeu_si128(pa.add(2), v2);
        _mm_storeu_si128(pa.add(3), v3);
        i += 64;
    }
    while i + 16 <= len {
        let pa = a.add(i) as *mut __m128i;
        let ps = s.add(i) as *const __m128i;
        _mm_storeu_si128(pa, _mm_xor_si128(_mm_loadu_si128(pa), _mm_loadu_si128(ps)));
        i += 16;
    }
    xor_into_scalar(&mut acc[i..], &src[i..]);
}

/// Compute the parity chunk of a stripe from its data chunks.
///
/// # Panics
/// Panics if `data` is empty or the chunks have unequal lengths; use
/// [`try_compute_parity`] on untrusted inputs.
pub fn compute_parity(data: &[&[u8]]) -> Vec<u8> {
    try_compute_parity(data).expect("malformed stripe")
}

/// Reconstruct one missing chunk from the surviving chunks of the stripe
/// (the survivors must include the parity chunk unless the missing chunk
/// *is* the parity chunk).
///
/// # Panics
/// Panics on malformed input; use [`try_reconstruct`] on untrusted inputs.
pub fn reconstruct(survivors: &[&[u8]]) -> Vec<u8> {
    compute_parity(survivors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(seed: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| seed.wrapping_mul(31).wrapping_add(i as u8)).collect()
    }

    /// Deterministic non-trivial filler for the equivalence sweeps.
    fn noise(len: usize, salt: u64) -> Vec<u8> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn parity_of_identical_chunks_is_zero_for_pairs() {
        let a = chunk(1, 64);
        let p = compute_parity(&[&a, &a]);
        assert!(p.iter().all(|&b| b == 0));
    }

    #[test]
    fn reconstruct_any_data_chunk() {
        let chunks: Vec<Vec<u8>> = (0..3).map(|i| chunk(i, 4096)).collect();
        let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let parity = compute_parity(&refs);
        for missing in 0..3 {
            let mut survivors: Vec<&[u8]> = Vec::new();
            for (i, c) in chunks.iter().enumerate() {
                if i != missing {
                    survivors.push(c);
                }
            }
            survivors.push(&parity);
            assert_eq!(reconstruct(&survivors), chunks[missing], "chunk {missing}");
        }
    }

    #[test]
    fn reconstruct_parity_itself() {
        let chunks: Vec<Vec<u8>> = (0..3).map(|i| chunk(i + 5, 1024)).collect();
        let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let parity = compute_parity(&refs);
        assert_eq!(reconstruct(&refs), parity);
    }

    #[test]
    fn handles_non_word_lengths() {
        let a = chunk(3, 13);
        let b = chunk(7, 13);
        let mut acc = a.clone();
        xor_into(&mut acc, &b);
        for i in 0..13 {
            assert_eq!(acc[i], a[i] ^ b[i]);
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        let mut a = vec![0u8; 8];
        xor_into(&mut a, &[0u8; 9]);
    }

    #[test]
    fn try_variants_reject_malformed_input() {
        use crate::error::ParityError;
        assert_eq!(try_compute_parity(&[]), Err(ParityError::EmptyStripe));
        let a = [0u8; 8];
        let b = [0u8; 9];
        assert_eq!(
            try_compute_parity(&[&a, &b]),
            Err(ParityError::LengthMismatch { expected: 8, got: 9 })
        );
        let mut acc = vec![0u8; 4];
        assert!(try_xor_into(&mut acc, &[1, 2, 3, 4]).is_ok());
        assert_eq!(acc, vec![1, 2, 3, 4]);
    }

    #[test]
    fn try_and_panicking_agree() {
        let chunks: Vec<Vec<u8>> = (0..3).map(|i| chunk(i, 256)).collect();
        let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        assert_eq!(try_compute_parity(&refs).unwrap(), compute_parity(&refs));
        assert_eq!(try_reconstruct(&refs).unwrap(), reconstruct(&refs));
    }

    /// The ISSUE-mandated exhaustive equivalence sweep: the dispatched
    /// kernel (AVX2 or SSE2 on this machine, scalar elsewhere) must match
    /// the scalar reference for every length 0–4 KiB, including unaligned
    /// starting offsets and odd tails. Slicing a buffer at offsets 1/3/7
    /// guarantees the SIMD paths see misaligned pointers.
    #[test]
    fn simd_matches_scalar_all_lengths_and_offsets() {
        let max = 4096usize;
        for &offset in &[0usize, 1, 3, 7] {
            let acc_src = noise(max + offset, 0xACC);
            let xor_src = noise(max + offset, 0x50C);
            for len in 0..=max {
                let mut fast = acc_src[offset..offset + len].to_vec();
                let mut slow = fast.clone();
                let src = &xor_src[offset..offset + len];
                xor_into(&mut fast, src);
                xor_into_scalar(&mut slow, src);
                if fast != slow {
                    panic!("kernel mismatch at offset {offset} len {len}");
                }
            }
        }
    }

    /// Same sweep through the misaligned middle of one shared buffer, so
    /// the destination pointer (not just the source) is unaligned.
    #[test]
    fn simd_matches_scalar_on_misaligned_destination() {
        let base = noise(8192, 0xD57);
        let src = noise(8192, 0x517);
        for &offset in &[1usize, 5, 9, 15, 31, 63] {
            for &len in &[0usize, 1, 7, 15, 16, 17, 31, 33, 63, 65, 127, 129, 1000, 4095] {
                let mut fast = base[offset..offset + len].to_vec();
                let mut slow = fast.clone();
                xor_into(&mut fast, &src[offset..offset + len]);
                xor_into_scalar(&mut slow, &src[offset..offset + len]);
                assert_eq!(fast, slow, "offset {offset} len {len}");
            }
        }
    }
}

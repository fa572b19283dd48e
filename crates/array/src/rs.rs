//! Reed-Solomon erasure coding over GF(256).
//!
//! A systematic `k + m` code: `k` data chunks per stripe, `m` parity
//! chunks, any `m` simultaneous losses recoverable. The encode matrix is
//! chosen so that:
//!
//! * **row 0 is all ones** — the first parity chunk is the plain XOR of
//!   the data chunks, so `m = 1` degenerates *exactly* to the existing
//!   RAID-5 parity ([`crate::parity`]), byte for byte;
//! * for `m ≤ 2` the remaining row is the Vandermonde row `α^i`
//!   (classic RAID-6 P+Q, provably MDS: every 1×1 entry is nonzero and
//!   every 2×2 determinant is `α^i ⊕ α^j ≠ 0` for `i ≠ j < 255`);
//! * for `m ≥ 3` a Cauchy matrix (`C[j][i] = 1/(x_j ⊕ y_i)` with
//!   distinct `x`/`y`) column-scaled so row 0 becomes all ones — every
//!   square submatrix of a Cauchy matrix is nonsingular and column
//!   scaling by nonzero constants preserves that, so any `≤ m` erasures
//!   stay decodable.
//!
//! Decoding selects any `k` surviving chunks, inverts the corresponding
//! `k × k` submatrix of the systematic generator by Gauss-Jordan
//! elimination, and reconstructs each erased chunk as one coefficient
//! vector applied in a single pass by the [`crate::gf256::gf_dot_into`]
//! kernel — so a single-erasure decode under `m = 1` is again a pure XOR.
//! [`ReedSolomon::recover_checked_into`] runs the same decode through
//! [`crate::gf256::gf_dot_crc_into`], which checksums every member and the
//! result in that one pass.

use crate::error::ParityError;
use crate::gf256::{gf_div, gf_dot_crc_into, gf_dot_into, gf_inv, gf_mul, gf_mul_into, gf_pow};
use std::ops::DerefMut;

/// A systematic `k + m` Reed-Solomon code. Shards are indexed
/// `0..k` (data columns) then `k..k+m` (parity rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    /// The `m × k` encode matrix; `rows[0]` is all ones.
    rows: Vec<Vec<u8>>,
}

impl ReedSolomon {
    /// Build the code for `k` data and `m` parity chunks per stripe.
    /// Requires `k ≥ 1`, `m ≥ 1`, `k + m ≤ 256` (field size).
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1, "at least one data column");
        assert!(m >= 1, "at least one parity chunk");
        assert!(k + m <= 256, "k + m must fit in GF(256)");
        let rows = if m <= 2 {
            (0..m)
                .map(|j| (0..k).map(|i| gf_pow(2, (j * i) as u32)).collect())
                .collect::<Vec<Vec<u8>>>()
        } else {
            // Cauchy over distinct points x_j = j, y_i = m + i, columns
            // scaled so row 0 is all ones.
            let raw: Vec<Vec<u8>> = (0..m)
                .map(|j| (0..k).map(|i| gf_inv((j as u8) ^ ((m + i) as u8))).collect())
                .collect();
            (0..m).map(|j| (0..k).map(|i| gf_div(raw[j][i], raw[0][i])).collect()).collect()
        };
        debug_assert!(rows[0].iter().all(|&c| c == 1));
        Self { k, m, rows }
    }

    /// Total chunks per stripe (`k + m`).
    pub fn total_shards(&self) -> usize {
        self.k + self.m
    }

    /// Encode-matrix coefficient of parity row `row` over data column
    /// `col`.
    pub fn coeff(&self, row: usize, col: usize) -> u8 {
        self.rows[row][col]
    }

    /// Fold one data column into `m` streaming parity accumulators
    /// (each pre-zeroed and chunk-sized): `parity[j] ^= coeff(j, column)
    /// · data`. This is how the stores compute parity without buffering
    /// the whole stripe.
    pub fn accumulate(
        &self,
        parity: &mut [impl DerefMut<Target = [u8]>],
        column: usize,
        data: &[u8],
    ) {
        assert_eq!(parity.len(), self.m, "one accumulator per parity row");
        assert!(column < self.k, "column out of range");
        for (j, acc) in parity.iter_mut().enumerate() {
            gf_mul_into(acc, data, self.rows[j][column]);
        }
    }

    /// Encode a full stripe: overwrite each `parity[j]` with the row-`j`
    /// combination of `data`. All slices must be equal length and
    /// `data.len() == k`, `parity.len() == m`.
    pub fn encode_into(&self, data: &[&[u8]], parity: &mut [Vec<u8>]) -> Result<(), ParityError> {
        if data.len() != self.k {
            return Err(ParityError::LengthMismatch { expected: self.k, got: data.len() });
        }
        let len = data[0].len();
        for d in data {
            if d.len() != len {
                return Err(ParityError::LengthMismatch { expected: len, got: d.len() });
            }
        }
        assert_eq!(parity.len(), self.m, "one output per parity row");
        for p in parity.iter_mut() {
            p.clear();
            p.resize(len, 0);
        }
        for (column, d) in data.iter().enumerate() {
            self.accumulate(parity, column, d);
        }
        Ok(())
    }

    /// Encode a full stripe into freshly allocated parity chunks.
    pub fn encode(&self, data: &[&[u8]]) -> Result<Vec<Vec<u8>>, ParityError> {
        let mut parity = vec![Vec::new(); self.m];
        self.encode_into(data, &mut parity)?;
        Ok(parity)
    }

    /// The generator row of shard `idx`: a unit row for data shards, the
    /// encode-matrix row for parity shards.
    fn generator_row(&self, idx: usize) -> Vec<u8> {
        if idx < self.k {
            let mut row = vec![0u8; self.k];
            row[idx] = 1;
            row
        } else {
            self.rows[idx - self.k].clone()
        }
    }

    /// Coefficient vector over `survivors` that reconstructs shard
    /// `target`: `shard_target = Σ_i coeffs[i] · survivor_i`.
    fn recovery_coeffs(&self, survivors: &[usize], target: usize) -> Result<Vec<u8>, ParityError> {
        debug_assert_eq!(survivors.len(), self.k);
        let a: Vec<Vec<u8>> = survivors.iter().map(|&s| self.generator_row(s)).collect();
        let b = invert(&a)?; // data = B · survivors
        Ok(if target < self.k {
            b[target].clone()
        } else {
            // parity_j = rows[j] · data = (rows[j] · B) · survivors
            let row = &self.rows[target - self.k];
            (0..self.k)
                .map(|i| (0..self.k).fold(0u8, |acc, j| acc ^ gf_mul(row[j], b[j][i])))
                .collect()
        })
    }

    /// Reconstruct shard `target` from at least `k` surviving shards
    /// `(shard_index, chunk)` into `out` (overwritten; must be
    /// chunk-sized). Extra survivors beyond `k` are ignored.
    pub fn recover_into(
        &self,
        survivors: &[(usize, &[u8])],
        target: usize,
        out: &mut [u8],
    ) -> Result<(), ParityError> {
        if survivors.len() < self.k {
            return Err(ParityError::NotEnoughShards { have: survivors.len(), need: self.k });
        }
        assert!(target < self.total_shards(), "target shard out of range");
        debug_assert!(survivors.iter().all(|&(s, _)| s != target), "target listed among survivors");
        let picked = &survivors[..self.k];
        if let Some(&(_, bad)) = picked.iter().find(|(_, chunk)| chunk.len() != out.len()) {
            return Err(ParityError::LengthMismatch { expected: out.len(), got: bad.len() });
        }
        let idx: Vec<usize> = picked.iter().map(|&(s, _)| s).collect();
        let coeffs = self.recovery_coeffs(&idx, target)?;
        let terms: Vec<(u8, &[u8])> =
            coeffs.iter().zip(picked).map(|(&c, &(_, chunk))| (c, chunk)).collect();
        gf_dot_into(out, &terms);
        Ok(())
    }

    /// [`Self::recover_into`] that checksums in the same pass: decodes
    /// shard `target` from the first `k` of `members` into `out` and
    /// returns the CRC32C of every member, in `members` order, and of
    /// `out`. Members beyond the first `k` are read for their CRC alone,
    /// so every member must be chunk-sized.
    pub fn recover_checked_into(
        &self,
        members: &[(usize, &[u8])],
        target: usize,
        out: &mut [u8],
    ) -> Result<(Vec<u32>, u32), ParityError> {
        if members.len() < self.k {
            return Err(ParityError::NotEnoughShards { have: members.len(), need: self.k });
        }
        assert!(target < self.total_shards(), "target shard out of range");
        debug_assert!(members.iter().all(|&(s, _)| s != target), "target listed among members");
        if let Some(&(_, bad)) = members.iter().find(|(_, chunk)| chunk.len() != out.len()) {
            return Err(ParityError::LengthMismatch { expected: out.len(), got: bad.len() });
        }
        let idx: Vec<usize> = members[..self.k].iter().map(|&(s, _)| s).collect();
        let coeffs = self.recovery_coeffs(&idx, target)?;
        let terms: Vec<(u8, &[u8])> = members
            .iter()
            .enumerate()
            .map(|(i, &(_, chunk))| (coeffs.get(i).copied().unwrap_or(0), chunk))
            .collect();
        let mut crcs = vec![0; members.len()];
        let out_crc = gf_dot_crc_into(out, &terms, &mut crcs);
        Ok((crcs, out_crc))
    }

    /// Reconstruct several shards at once; returns chunks in `targets`
    /// order.
    pub fn recover_many(
        &self,
        survivors: &[(usize, &[u8])],
        targets: &[usize],
        chunk_len: usize,
    ) -> Result<Vec<Vec<u8>>, ParityError> {
        targets
            .iter()
            .map(|&t| {
                let mut out = vec![0u8; chunk_len];
                self.recover_into(survivors, t, &mut out)?;
                Ok(out)
            })
            .collect()
    }
}

/// Gauss-Jordan inversion of a `k × k` matrix over GF(256).
fn invert(a: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, ParityError> {
    let k = a.len();
    // Augmented [A | I], reduced in place.
    let mut aug: Vec<Vec<u8>> = a
        .iter()
        .enumerate()
        .map(|(r, row)| {
            debug_assert_eq!(row.len(), k);
            let mut w = row.clone();
            w.resize(2 * k, 0);
            w[k + r] = 1;
            w
        })
        .collect();
    for col in 0..k {
        let pivot = (col..k).find(|&r| aug[r][col] != 0).ok_or(ParityError::SingularMatrix)?;
        aug.swap(col, pivot);
        let inv = gf_inv(aug[col][col]);
        for x in aug[col].iter_mut() {
            *x = gf_mul(*x, inv);
        }
        let pivot_row = aug[col].clone();
        for (r, row) in aug.iter_mut().enumerate() {
            if r != col && row[col] != 0 {
                let f = row[col];
                for (x, &p) in row.iter_mut().zip(&pivot_row) {
                    *x ^= gf_mul(f, p);
                }
            }
        }
    }
    Ok(aug.into_iter().map(|row| row[k..].to_vec()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parity;

    fn chunk(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(197).wrapping_add(salt)).collect()
    }

    fn stripe(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k).map(|i| chunk(len, (i * 37 + 11) as u8)).collect()
    }

    /// All size-`r` subsets of `0..n`.
    fn combinations(n: usize, r: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut cur = Vec::new();
        fn rec(start: usize, n: usize, r: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if cur.len() == r {
                out.push(cur.clone());
                return;
            }
            for i in start..n {
                cur.push(i);
                rec(i + 1, n, r, cur, out);
                cur.pop();
            }
        }
        rec(0, n, r, &mut cur, &mut out);
        out
    }

    #[test]
    fn m1_parity_is_plain_xor() {
        for k in [2usize, 3, 5, 8] {
            let rs = ReedSolomon::new(k, 1);
            let data = stripe(k, 777);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let p = rs.encode(&refs).unwrap();
            let xor = parity::try_compute_parity(&refs).unwrap();
            assert_eq!(p[0], xor, "k = {k}");
        }
    }

    #[test]
    fn raid6_q_matches_textbook_formula() {
        let k = 4;
        let rs = ReedSolomon::new(k, 2);
        let data = stripe(k, 129);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let p = rs.encode(&refs).unwrap();
        for byte in 0..129 {
            let mut p0 = 0u8;
            let mut q = 0u8;
            for (i, d) in data.iter().enumerate() {
                p0 ^= d[byte];
                q ^= gf_mul(gf_pow(2, i as u32), d[byte]);
            }
            assert_eq!(p[0][byte], p0);
            assert_eq!(p[1][byte], q);
        }
    }

    #[test]
    fn streaming_accumulate_matches_full_encode() {
        let (k, m, len) = (5, 3, 260);
        let rs = ReedSolomon::new(k, m);
        let data = stripe(k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let full = rs.encode(&refs).unwrap();
        let mut accs = vec![vec![0u8; len]; m];
        // Columns folded out of order — accumulation must commute.
        for &col in &[3usize, 0, 4, 1, 2] {
            rs.accumulate(&mut accs, col, &data[col]);
        }
        assert_eq!(accs, full);
    }

    #[test]
    fn every_erasure_pattern_round_trips() {
        // Chunk lengths straddle the SIMD widths (odd tail, exact width).
        for &(k, m, len) in &[
            (3usize, 1usize, 67usize),
            (3, 2, 64),
            (4, 2, 130),
            (6, 3, 97),
            (5, 4, 48),
            (10, 4, 33),
        ] {
            let rs = ReedSolomon::new(k, m);
            let data = stripe(k, len);
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let parity = rs.encode(&refs).unwrap();
            let shards: Vec<&[u8]> =
                refs.iter().copied().chain(parity.iter().map(|p| p.as_slice())).collect();
            for r in 1..=m {
                for erased in combinations(k + m, r) {
                    let survivors: Vec<(usize, &[u8])> = (0..k + m)
                        .filter(|i| !erased.contains(i))
                        .map(|i| (i, shards[i]))
                        .collect();
                    let recovered = rs.recover_many(&survivors, &erased, len).unwrap();
                    for (t, got) in erased.iter().zip(recovered.iter()) {
                        assert_eq!(
                            got, shards[*t],
                            "k={k} m={m} erased={erased:?} shard {t} mismatch"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn too_few_survivors_is_an_error() {
        let rs = ReedSolomon::new(4, 2);
        let data = stripe(4, 1);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let survivors: Vec<(usize, &[u8])> = refs.iter().copied().enumerate().take(3).collect();
        let mut out = vec![0u8; data[0].len()];
        assert_eq!(
            rs.recover_into(&survivors, 5, &mut out),
            Err(ParityError::NotEnoughShards { have: 3, need: 4 })
        );
    }

    #[test]
    fn extra_survivors_are_ignored() {
        let (k, m, len) = (4, 2, 100);
        let rs = ReedSolomon::new(k, m);
        let data = stripe(k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        // All shards except shard 2 offered as survivors (k+1 of them).
        let shards: Vec<&[u8]> =
            refs.iter().copied().chain(parity.iter().map(|p| p.as_slice())).collect();
        let survivors: Vec<(usize, &[u8])> =
            (0..k + m).filter(|&i| i != 2).map(|i| (i, shards[i])).collect();
        let mut out = vec![0u8; len];
        rs.recover_into(&survivors, 2, &mut out).unwrap();
        assert_eq!(out, data[2]);
    }

    #[test]
    fn checked_recovery_decodes_like_recover_into_and_sums_every_member() {
        let (k, m, len) = (4, 2, 1000);
        let rs = ReedSolomon::new(k, m);
        let data = stripe(k, len);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = rs.encode(&refs).unwrap();
        let shards: Vec<&[u8]> =
            refs.iter().copied().chain(parity.iter().map(|p| p.as_slice())).collect();
        for target in 0..k + m {
            // Five members: four decode, the fifth is checksummed only.
            let members: Vec<(usize, &[u8])> =
                (0..k + m).filter(|&i| i != target).map(|i| (i, shards[i])).collect();
            let mut out = vec![0xEE; len];
            let (crcs, out_crc) = rs.recover_checked_into(&members, target, &mut out).unwrap();
            assert_eq!(out, shards[target], "target {target}");
            assert_eq!(out_crc, crate::crc::crc32c(shards[target]));
            let want: Vec<u32> = members.iter().map(|&(_, c)| crate::crc::crc32c(c)).collect();
            assert_eq!(crcs, want, "target {target}");
        }
        let short = [(0usize, &shards[0][..1]), (1, shards[1]), (2, shards[2]), (3, shards[3])];
        let mut out = vec![0; len];
        assert_eq!(
            rs.recover_checked_into(&short, 4, &mut out),
            Err(ParityError::LengthMismatch { expected: len, got: 1 })
        );
        assert_eq!(
            rs.recover_checked_into(&short[1..], 4, &mut out),
            Err(ParityError::NotEnoughShards { have: 3, need: 4 })
        );
    }

    #[test]
    fn row_zero_is_all_ones_for_every_geometry() {
        for (k, m) in [(2, 1), (3, 2), (4, 3), (8, 4), (20, 6)] {
            let rs = ReedSolomon::new(k, m);
            assert!((0..k).all(|i| rs.coeff(0, i) == 1), "k={k} m={m}");
        }
    }
}

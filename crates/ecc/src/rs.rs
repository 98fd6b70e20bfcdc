//! Reed–Solomon codes over GF(2^8).
//!
//! A systematic RS(n, k) code with `2t = n - k` parity symbols corrects up
//! to `t` symbol errors and detects more (with a small, realistic
//! miscorrection probability beyond the design distance). Decoding uses
//! syndrome computation, Berlekamp–Massey, Chien search and Forney's
//! algorithm.
//!
//! [`crate::chipkill`] instantiates RS(18, 16) — one 8-bit symbol per DRAM
//! chip per beat — to obtain Chipkill-Correct, and RS(20, 16) for the
//! stronger double-chipkill ablation.
//!
//! # Example
//!
//! ```
//! use soteria_ecc::rs::ReedSolomon;
//!
//! let rs = ReedSolomon::new(18, 16)?;
//! let mut cw = rs.encode(&[7u8; 16])?;
//! cw[3] ^= 0xff; // corrupt one symbol ("chip")
//! let (data, outcome) = rs.decode(&cw)?;
//! assert_eq!(data, vec![7u8; 16]);
//! assert!(outcome.is_usable());
//! # Ok::<(), soteria_ecc::rs::RsError>(())
//! ```

use crate::gf256::{poly_eval, poly_mul, Gf256, ALPHA_MUL, EXP, LOG};
use crate::CorrectionOutcome;

/// Sentinel in [`ReedSolomon::gen_log`] for a zero generator coefficient
/// (zero has no discrete log).
const ZERO_LOG: u16 = u16::MAX;

/// Multiply-by-zero row for [`ReedSolomon::par_rows`] positions whose
/// parity coefficient is zero (`ALPHA_MUL` only covers α^p ≠ 0).
static ZERO_ROW: [u8; 256] = [0u8; 256];

/// Errors returned by [`ReedSolomon`] operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RsError {
    /// `n` must satisfy `k < n <= 255`.
    InvalidParameters {
        /// Requested codeword length.
        n: usize,
        /// Requested data length.
        k: usize,
    },
    /// The input slice length does not match the code's `k` (for encode) or
    /// `n` (for decode).
    LengthMismatch {
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::InvalidParameters { n, k } => {
                write!(
                    f,
                    "invalid Reed-Solomon parameters n={n}, k={k} (need k < n <= 255)"
                )
            }
            RsError::LengthMismatch { expected, got } => {
                write!(f, "length mismatch: expected {expected} symbols, got {got}")
            }
        }
    }
}

impl std::error::Error for RsError {}

/// A systematic Reed–Solomon encoder/decoder over GF(2^8).
///
/// The generator coefficients and syndrome evaluation run in the **log
/// domain**: [`ReedSolomon::new`] precomputes the discrete logs of every
/// generator coefficient, so the encoder's inner loop is one antilog
/// lookup per coefficient (no per-symbol zero checks on the multiplier)
/// and the syndrome scan is a branch-light Horner pass over the raw
/// bytes.
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    // Discrete logs of the lowest-degree-first generator polynomial
    // coefficients ([`ZERO_LOG`] for a zero coefficient).
    gen_log: Vec<u16>,
    // One multiply-by-constant table row per (syndrome, position):
    // `syn_rows[(i-1)*n + j] = &ALPHA_MUL[(i·(n-1-j)) mod 255]`, so the
    // syndrome scan is `acc ^= row[c]` — a `u8` index needs no bounds
    // check and there is no loop-carried multiply.
    syn_rows: Vec<&'static [u8; 256]>,
    // One multiply-by-constant row per (parity, data position):
    // `par_rows[j*k + i]` multiplies by parity byte j of the unit
    // message e_i, so systematic encoding — a GF(2^8)-linear map — is
    // the same branch-free scan shape as the syndromes.
    par_rows: Vec<&'static [u8; 256]>,
}

impl ReedSolomon {
    /// Creates an RS(n, k) code.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParameters`] unless `0 < k < n <= 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, RsError> {
        if k == 0 || k >= n || n > 255 {
            return Err(RsError::InvalidParameters { n, k });
        }
        // g(x) = prod_{i=1}^{2t} (x - alpha^i)   (narrow-sense, b = 1)
        let mut generator = vec![Gf256::ONE];
        for i in 1..=(n - k) {
            generator = poly_mul(&generator, &[Gf256::alpha_pow(i), Gf256::ONE]);
        }
        let gen_log = generator
            .iter()
            .map(|g| g.log().map_or(ZERO_LOG, u16::from))
            .collect();
        let mut syn_rows = Vec::with_capacity((n - k) * n);
        for i in 1..=(n - k) {
            for j in 0..n {
                syn_rows.push(&ALPHA_MUL[(i * (n - 1 - j)) % 255]);
            }
        }
        let mut rs = Self {
            n,
            k,
            gen_log,
            syn_rows,
            par_rows: Vec::new(),
        };
        // Parity of the unit message e_i (via the division reference
        // encoder) gives column i of the linear parity map; linearity of
        // `rem(·)` over GF(2^8) makes the table encoder bit-identical.
        let mut par_rows = vec![&ZERO_ROW; (n - k) * k];
        let mut data = vec![0u8; k];
        let mut cw = vec![0u8; n];
        for i in 0..k {
            data[i] = 1;
            rs.encode_into_reference(&data, &mut cw)?;
            data[i] = 0;
            for j in 0..(n - k) {
                let p = cw[k + j];
                if p != 0 {
                    par_rows[j * k + i] = &ALPHA_MUL[LOG[p as usize] as usize];
                }
            }
        }
        rs.par_rows = par_rows;
        Ok(rs)
    }

    /// Codeword length in symbols.
    pub fn codeword_len(&self) -> usize {
        self.n
    }

    /// Data length in symbols.
    pub fn data_len(&self) -> usize {
        self.k
    }

    /// Number of parity symbols.
    pub fn parity_len(&self) -> usize {
        self.n - self.k
    }

    /// Maximum number of guaranteed-correctable symbol errors.
    pub fn correctable(&self) -> usize {
        (self.n - self.k) / 2
    }

    /// Encodes `data` (length `k`) into a codeword (length `n`), data
    /// symbols first, parity appended.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data.len() != k`.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<u8>, RsError> {
        let mut cw = vec![0u8; self.n];
        self.encode_into(data, &mut cw)?;
        Ok(cw)
    }

    /// Encodes `data` into a caller-provided codeword buffer of length
    /// `n` (data symbols first, parity appended) without allocating —
    /// the parity remainder is accumulated in place in `cw[k..]`.
    /// [`crate::chipkill`] uses this to stripe four beats into one stored
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data.len() != k` or
    /// `cw.len() != n`.
    pub fn encode_into(&self, data: &[u8], cw: &mut [u8]) -> Result<(), RsError> {
        if data.len() != self.k {
            return Err(RsError::LengthMismatch {
                expected: self.k,
                got: data.len(),
            });
        }
        if cw.len() != self.n {
            return Err(RsError::LengthMismatch {
                expected: self.n,
                got: cw.len(),
            });
        }
        // The systematic parity map is GF(2^8)-linear in the data
        // symbols, so each parity byte is an XOR of per-position
        // multiply-by-constant lookups through the row pointers built in
        // [`ReedSolomon::new`] — no feedback chain, no branches, two
        // parity rows fused per pass (same idiom as the syndrome scan).
        // Bit-identical to [`Self::encode_into_reference`].
        let (data_out, parity) = cw.split_at_mut(self.k);
        data_out.copy_from_slice(data);
        let parity_len = parity.len();
        let mut row = 0;
        while row + 1 < parity_len {
            let r0 = &self.par_rows[row * self.k..(row + 1) * self.k];
            let r1 = &self.par_rows[(row + 1) * self.k..(row + 2) * self.k];
            let (mut a0, mut a1) = (0u8, 0u8);
            for ((&d, t0), t1) in data.iter().zip(r0).zip(r1) {
                a0 ^= t0[d as usize];
                a1 ^= t1[d as usize];
            }
            parity[row] = a0;
            parity[row + 1] = a1;
            row += 2;
        }
        if row < parity_len {
            let rows = &self.par_rows[row * self.k..(row + 1) * self.k];
            let mut acc = 0u8;
            for (&d, table) in data.iter().zip(rows) {
                acc ^= table[d as usize];
            }
            parity[row] = acc;
        }
        Ok(())
    }

    /// The original synthetic-division systematic encoder, kept as the
    /// equivalence/benchmark reference for [`Self::encode_into`].
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data.len() != k` or
    /// `cw.len() != n`.
    pub fn encode_into_reference(&self, data: &[u8], cw: &mut [u8]) -> Result<(), RsError> {
        if data.len() != self.k {
            return Err(RsError::LengthMismatch {
                expected: self.k,
                got: data.len(),
            });
        }
        if cw.len() != self.n {
            return Err(RsError::LengthMismatch {
                expected: self.n,
                got: cw.len(),
            });
        }
        // Systematic encoding: c(x) = m(x)*x^(2t) + (m(x)*x^(2t) mod g(x)).
        // Polynomial coefficient i corresponds to codeword position i
        // counted from the END (lowest degree = last parity symbol).
        let (data_out, rem) = cw.split_at_mut(self.k);
        data_out.copy_from_slice(data);
        rem.fill(0);
        let parity_len = rem.len();
        // Synthetic division of m(x) * x^(2t) by g(x), feeding data
        // highest-degree-first (data[0] is the highest coefficient). The
        // feedback's log is taken once per data symbol; each coefficient
        // multiply is then a single antilog lookup.
        for &d in data {
            let feedback = d ^ rem[parity_len - 1];
            if feedback == 0 {
                rem.copy_within(0..parity_len - 1, 1);
                rem[0] = 0;
            } else {
                let fl = LOG[feedback as usize] as usize;
                for j in (1..parity_len).rev() {
                    let g = self.gen_log[j];
                    let term = if g == ZERO_LOG {
                        0
                    } else {
                        EXP[fl + g as usize]
                    };
                    rem[j] = rem[j - 1] ^ term;
                }
                let g0 = self.gen_log[0];
                rem[0] = if g0 == ZERO_LOG {
                    0
                } else {
                    EXP[fl + g0 as usize]
                };
            }
        }
        // rem is lowest-degree-first; the codeword stores parity
        // highest-degree-first.
        rem.reverse();
        Ok(())
    }

    /// Computes the 2t syndromes `S_i = C(α^i)`, `i = 1..=n-k`, straight
    /// over the raw codeword bytes: `S_i = Σ_j cw[j] · α^(i·deg(j))` with
    /// each product a single `ALPHA_MUL` load through the row pointers
    /// precomputed in [`ReedSolomon::new`]. Unlike a Horner scan there is
    /// no loop-carried multiply — the per-byte lookups are independent and
    /// only meet in an XOR — and because the table index is a `u8` the
    /// inner loop has no bounds checks or exponent arithmetic at all.
    pub fn syndromes(&self, cw: &[u8]) -> Vec<Gf256> {
        if cw.len() != self.n {
            // Off-geometry inputs (shortened/padded probes in tests) take
            // the generic evaluator; the hot path is always full-length.
            return self.syndromes_reference(cw);
        }
        let parity = self.n - self.k;
        let mut out = vec![Gf256::ZERO; parity];
        // Two syndrome rows per pass share the codeword loads and loop
        // control; their accumulators are independent, so the lookups
        // overlap in flight.
        let mut row = 0;
        while row + 1 < parity {
            let r0 = &self.syn_rows[row * self.n..(row + 1) * self.n];
            let r1 = &self.syn_rows[(row + 1) * self.n..(row + 2) * self.n];
            let (mut a0, mut a1) = (0u8, 0u8);
            for ((&c, t0), t1) in cw.iter().zip(r0).zip(r1) {
                a0 ^= t0[c as usize];
                a1 ^= t1[c as usize];
            }
            out[row] = Gf256::new(a0);
            out[row + 1] = Gf256::new(a1);
            row += 2;
        }
        if row < parity {
            let rows = &self.syn_rows[row * self.n..(row + 1) * self.n];
            let mut acc = 0u8;
            for (&c, table) in cw.iter().zip(rows) {
                acc ^= table[c as usize];
            }
            out[row] = Gf256::new(acc);
        }
        out
    }

    /// Returns `true` iff every syndrome of `cw` is zero — i.e. `cw` is a
    /// valid codeword. Same fused table scan as [`ReedSolomon::syndromes`]
    /// but allocation-free with an early exit, for the overwhelmingly
    /// common clean-read fast path in [`crate::chipkill`].
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `cw.len() != n`.
    pub fn syndromes_all_zero(&self, cw: &[u8]) -> Result<bool, RsError> {
        if cw.len() != self.n {
            return Err(RsError::LengthMismatch {
                expected: self.n,
                got: cw.len(),
            });
        }
        let parity = self.n - self.k;
        let mut row = 0;
        while row + 1 < parity {
            let r0 = &self.syn_rows[row * self.n..(row + 1) * self.n];
            let r1 = &self.syn_rows[(row + 1) * self.n..(row + 2) * self.n];
            let (mut a0, mut a1) = (0u8, 0u8);
            for ((&c, t0), t1) in cw.iter().zip(r0).zip(r1) {
                a0 ^= t0[c as usize];
                a1 ^= t1[c as usize];
            }
            if a0 != 0 || a1 != 0 {
                return Ok(false);
            }
            row += 2;
        }
        if row < parity {
            let rows = &self.syn_rows[row * self.n..(row + 1) * self.n];
            let mut acc = 0u8;
            for (&c, table) in cw.iter().zip(rows) {
                acc ^= table[c as usize];
            }
            if acc != 0 {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The original generic-polynomial syndrome computation (reversed
    /// coefficient buffer + [`poly_eval`]), kept as the benchmark and
    /// equivalence reference for [`ReedSolomon::syndromes`].
    pub fn syndromes_reference(&self, cw: &[u8]) -> Vec<Gf256> {
        let coeffs: Vec<Gf256> = cw.iter().rev().map(|&b| Gf256::new(b)).collect();
        (1..=(self.n - self.k))
            .map(|i| poly_eval(&coeffs, Gf256::alpha_pow(i)))
            .collect()
    }

    /// Decodes with known **erasure** positions (symbols flagged bad by
    /// external knowledge, e.g. a marked-dead chip). A code with `2t`
    /// parity symbols corrects `e` erasures plus `v` errors whenever
    /// `e + 2v <= 2t` — so RS(18,16) with one marked chip still corrects
    /// that chip *and* detects-or-pinpoints more.
    ///
    /// Implementation: the erasure magnitudes are solved directly from the
    /// syndromes (Vandermonde system); residual syndromes fall back to
    /// plain error decoding.
    ///
    /// **Detection margin**: with `e == 2t` every parity symbol is spent
    /// on erasures, so an *additional* unknown error is silently absorbed
    /// into wrong erasure magnitudes — an inherent property of MDS codes,
    /// not of this implementation. Fully-marked chipkill therefore relies
    /// on the layer above (the secure controller's MACs) to catch further
    /// corruption, which is yet another §3.1 decoupling argument.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `cw.len() != n`.
    ///
    /// # Panics
    ///
    /// Panics if any erasure position is out of range or duplicated.
    pub fn decode_with_erasures(
        &self,
        cw: &[u8],
        erasures: &[usize],
    ) -> Result<(Vec<u8>, CorrectionOutcome), RsError> {
        if cw.len() != self.n {
            return Err(RsError::LengthMismatch {
                expected: self.n,
                got: cw.len(),
            });
        }
        for (i, &p) in erasures.iter().enumerate() {
            assert!(p < self.n, "erasure position {p} out of range");
            assert!(
                !erasures[i + 1..].contains(&p),
                "duplicate erasure position {p}"
            );
        }
        if erasures.is_empty() {
            return self.decode(cw);
        }
        if erasures.len() > self.n - self.k {
            // More erasures than parity symbols: unrecoverable.
            return Ok((cw[..self.k].to_vec(), CorrectionOutcome::Uncorrectable));
        }
        let synd = self.syndromes(cw);
        if synd.iter().all(|s| s.is_zero()) {
            return Ok((cw[..self.k].to_vec(), CorrectionOutcome::Clean));
        }
        // Erasure locators X_j = alpha^(degree of erased coefficient).
        let xs: Vec<Gf256> = erasures
            .iter()
            .map(|&p| Gf256::alpha_pow(self.n - 1 - p))
            .collect();
        // Solve sum_j e_j * X_j^i = S_i for i = 1..=e (Vandermonde system)
        // by Gaussian elimination; with e <= 2t this is exact when the
        // only bad symbols are the erased ones.
        let e = xs.len();
        let mut m: Vec<Vec<Gf256>> = (0..e)
            .map(|row| {
                let mut r: Vec<Gf256> = xs.iter().map(|&x| x.pow(row + 1)).collect();
                r.push(synd[row]);
                r
            })
            .collect();
        // Gaussian elimination over GF(256).
        for col in 0..e {
            let pivot = (col..e).find(|&r| !m[r][col].is_zero());
            let Some(pivot) = pivot else {
                return Ok((cw[..self.k].to_vec(), CorrectionOutcome::Uncorrectable));
            };
            m.swap(col, pivot);
            let inv = m[col][col].inverse();
            for v in m[col].iter_mut() {
                *v = *v * inv;
            }
            for r in 0..e {
                if r != col && !m[r][col].is_zero() {
                    let f = m[r][col];
                    let pivot_row = m[col].clone();
                    for (cell, &p) in m[r].iter_mut().zip(pivot_row.iter()) {
                        *cell = *cell + p * f;
                    }
                }
            }
        }
        let mut corrected = cw.to_vec();
        let mut fixed = 0usize;
        for (j, &p) in erasures.iter().enumerate() {
            let magnitude = m[j][e];
            if !magnitude.is_zero() {
                corrected[p] ^= magnitude.value();
                fixed += 1;
            }
        }
        // All syndromes must vanish, otherwise errors beyond the erasures
        // are present (possibly correctable by full errors-and-erasures
        // decoding when 2t is larger; detected-uncorrectable here).
        if self.syndromes(&corrected).iter().any(|s| !s.is_zero()) {
            // Fall back to plain decoding: maybe the damage is elsewhere
            // and within the error budget.
            return self.decode(cw);
        }
        Ok((
            corrected[..self.k].to_vec(),
            CorrectionOutcome::Corrected { symbols: fixed },
        ))
    }

    /// Decodes a codeword, returning the (possibly corrected) data symbols
    /// and the correction outcome.
    ///
    /// When the error weight exceeds `t`, the decoder usually reports
    /// [`CorrectionOutcome::Uncorrectable`]; with probability ~`n/2^(8(t))`
    /// per pattern it may miscorrect, exactly like real hardware.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `cw.len() != n`.
    pub fn decode(&self, cw: &[u8]) -> Result<(Vec<u8>, CorrectionOutcome), RsError> {
        if cw.len() != self.n {
            return Err(RsError::LengthMismatch {
                expected: self.n,
                got: cw.len(),
            });
        }
        let synd = self.syndromes(cw);
        if synd.iter().all(|s| s.is_zero()) {
            return Ok((cw[..self.k].to_vec(), CorrectionOutcome::Clean));
        }

        // Berlekamp-Massey: find the error-locator polynomial sigma(x).
        let mut sigma = vec![Gf256::ONE];
        let mut prev_sigma = vec![Gf256::ONE];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = Gf256::ONE;
        for i in 0..synd.len() {
            let mut delta = synd[i];
            for j in 1..=l.min(sigma.len() - 1) {
                delta = delta + sigma[j] * synd[i - j];
            }
            if delta.is_zero() {
                m += 1;
            } else if 2 * l <= i {
                let temp = sigma.clone();
                let scale = delta / b;
                let mut shifted = vec![Gf256::ZERO; m];
                shifted.extend(prev_sigma.iter().map(|&c| c * scale));
                if shifted.len() > sigma.len() {
                    sigma.resize(shifted.len(), Gf256::ZERO);
                }
                for (s, sh) in sigma.iter_mut().zip(shifted.iter()) {
                    *s = *s + *sh;
                }
                l = i + 1 - l;
                prev_sigma = temp;
                b = delta;
                m = 1;
            } else {
                let scale = delta / b;
                let mut shifted = vec![Gf256::ZERO; m];
                shifted.extend(prev_sigma.iter().map(|&c| c * scale));
                if shifted.len() > sigma.len() {
                    sigma.resize(shifted.len(), Gf256::ZERO);
                }
                for (s, sh) in sigma.iter_mut().zip(shifted.iter()) {
                    *s = *s + *sh;
                }
                m += 1;
            }
        }
        while sigma.last() == Some(&Gf256::ZERO) && sigma.len() > 1 {
            sigma.pop();
        }
        let num_errors = sigma.len() - 1;
        if num_errors == 0 || num_errors > self.correctable() || l != num_errors {
            return Ok((cw[..self.k].to_vec(), CorrectionOutcome::Uncorrectable));
        }

        // Chien search: roots of sigma give error locations.
        let mut error_positions = Vec::new(); // degree of the errored coefficient
        for pos in 0..self.n {
            // Candidate location X = alpha^pos; root test at X^{-1}.
            let x_inv = Gf256::alpha_pow(pos).inverse();
            if poly_eval(&sigma, x_inv).is_zero() {
                error_positions.push(pos);
            }
        }
        if error_positions.len() != num_errors {
            return Ok((cw[..self.k].to_vec(), CorrectionOutcome::Uncorrectable));
        }

        // Forney: error magnitudes. Omega(x) = S(x) * sigma(x) mod x^(2t).
        let s_poly: Vec<Gf256> = synd.clone();
        let mut omega = poly_mul(&s_poly, &sigma);
        omega.truncate(self.n - self.k);
        // sigma'(x): formal derivative (odd-degree terms only in char 2).
        let sigma_deriv: Vec<Gf256> = sigma
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| if i % 2 == 1 { c } else { Gf256::ZERO })
            .collect::<Vec<_>>()
            // derivative shifts degrees down by one
            .to_vec();

        let mut corrected = cw.to_vec();
        for &pos in &error_positions {
            let x = Gf256::alpha_pow(pos);
            let x_inv = x.inverse();
            let num = poly_eval(&omega, x_inv);
            let den = poly_eval(&sigma_deriv, x_inv);
            if den.is_zero() {
                return Ok((cw[..self.k].to_vec(), CorrectionOutcome::Uncorrectable));
            }
            // Narrow-sense (b=1) Forney correction: e = X * Omega(X^-1) / sigma'(X^-1)
            // with the convention S_i = C(alpha^i) starting at i = 1.
            let magnitude = num / den;
            let idx = self.n - 1 - pos; // vector index of degree `pos`
            corrected[idx] ^= magnitude.value();
        }

        // Re-check: all syndromes of the corrected word must vanish.
        if self.syndromes(&corrected).iter().any(|s| !s.is_zero()) {
            return Ok((cw[..self.k].to_vec(), CorrectionOutcome::Uncorrectable));
        }
        Ok((
            corrected[..self.k].to_vec(),
            CorrectionOutcome::Corrected {
                symbols: num_errors,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(ReedSolomon::new(10, 10).is_err());
        assert!(ReedSolomon::new(10, 0).is_err());
        assert!(ReedSolomon::new(256, 200).is_err());
        assert!(ReedSolomon::new(18, 16).is_ok());
    }

    #[test]
    fn encode_length_checked() {
        let rs = ReedSolomon::new(18, 16).unwrap();
        assert_eq!(
            rs.encode(&[0u8; 15]),
            Err(RsError::LengthMismatch {
                expected: 16,
                got: 15
            })
        );
    }

    #[test]
    fn clean_roundtrip() {
        let rs = ReedSolomon::new(18, 16).unwrap();
        let data: Vec<u8> = (0..16).map(|i| i * 13).collect();
        let cw = rs.encode(&data).unwrap();
        assert_eq!(cw.len(), 18);
        let (decoded, outcome) = rs.decode(&cw).unwrap();
        assert_eq!(decoded, data);
        assert_eq!(outcome, CorrectionOutcome::Clean);
    }

    #[test]
    fn corrects_single_symbol_everywhere() {
        let rs = ReedSolomon::new(18, 16).unwrap();
        let data: Vec<u8> = (0..16u8)
            .map(|i| i.wrapping_mul(31).wrapping_add(5))
            .collect();
        let cw = rs.encode(&data).unwrap();
        for pos in 0..18 {
            for err in [0x01u8, 0x80, 0xff, 0x5a] {
                let mut bad = cw.clone();
                bad[pos] ^= err;
                let (decoded, outcome) = rs.decode(&bad).unwrap();
                assert_eq!(decoded, data, "pos={pos} err={err:#x}");
                assert_eq!(outcome, CorrectionOutcome::Corrected { symbols: 1 });
            }
        }
    }

    #[test]
    fn detects_double_symbol_with_t1() {
        // RS(18,16) has t=1; two-symbol errors must not be silently accepted
        // as clean. (A tiny miscorrection rate is allowed, but with these
        // fixed patterns the decoder must flag or miscorrect-detectably.)
        let rs = ReedSolomon::new(18, 16).unwrap();
        let data = [0xa5u8; 16];
        let cw = rs.encode(&data).unwrap();
        let mut detected = 0;
        let mut miscorrected = 0;
        let mut total = 0;
        for p1 in 0..18 {
            for p2 in (p1 + 1)..18 {
                let mut bad = cw.clone();
                bad[p1] ^= 0x3c;
                bad[p2] ^= 0xc3;
                let (decoded, outcome) = rs.decode(&bad).unwrap();
                total += 1;
                match outcome {
                    CorrectionOutcome::Clean => panic!("double error decoded as clean"),
                    CorrectionOutcome::Uncorrectable => detected += 1,
                    CorrectionOutcome::Corrected { .. } => {
                        if decoded != data {
                            miscorrected += 1;
                        }
                    }
                }
            }
        }
        // Virtually all double errors should be detected; d=3 allows some
        // miscorrections but they must be a small minority.
        assert!(
            detected * 2 > total,
            "detected {detected}/{total}, miscorrected {miscorrected}"
        );
    }

    #[test]
    fn t2_code_corrects_two_errors() {
        let rs = ReedSolomon::new(20, 16).unwrap();
        assert_eq!(rs.correctable(), 2);
        let data: Vec<u8> = (100..116).map(|i| i as u8).collect();
        let cw = rs.encode(&data).unwrap();
        for (p1, p2) in [(0, 1), (0, 19), (7, 13), (16, 17), (5, 18)] {
            let mut bad = cw.clone();
            bad[p1] ^= 0xde;
            bad[p2] ^= 0x01;
            let (decoded, outcome) = rs.decode(&bad).unwrap();
            assert_eq!(decoded, data, "p1={p1} p2={p2}");
            assert_eq!(outcome, CorrectionOutcome::Corrected { symbols: 2 });
        }
    }

    #[test]
    fn t2_code_flags_three_errors() {
        let rs = ReedSolomon::new(20, 16).unwrap();
        let data = [0x11u8; 16];
        let cw = rs.encode(&data).unwrap();
        let mut flagged = 0;
        let mut total = 0;
        for combo in [(0, 5, 10), (1, 2, 3), (17, 18, 19), (4, 9, 14)] {
            let mut bad = cw.clone();
            bad[combo.0] ^= 0x77;
            bad[combo.1] ^= 0x88;
            bad[combo.2] ^= 0x99;
            let (_, outcome) = rs.decode(&bad).unwrap();
            total += 1;
            if outcome == CorrectionOutcome::Uncorrectable {
                flagged += 1;
            }
        }
        assert!(flagged >= total - 1, "flagged {flagged}/{total}");
    }

    #[test]
    fn log_domain_syndromes_match_reference() {
        // Equivalence proof for the Horner syndrome scan: identical to
        // the generic poly_eval path on clean, corrupted, and
        // pseudo-random words, for both code geometries in use.
        for (n, k) in [(18usize, 16usize), (20, 16), (255, 223)] {
            let rs = ReedSolomon::new(n, k).unwrap();
            let data: Vec<u8> = (0..k).map(|i| (i * 89 + 7) as u8).collect();
            let mut cw = rs.encode(&data).unwrap();
            assert_eq!(rs.syndromes(&cw), rs.syndromes_reference(&cw));
            for pos in [0, k / 2, n - 1] {
                cw[pos] ^= 0x5f;
                assert_eq!(
                    rs.syndromes(&cw),
                    rs.syndromes_reference(&cw),
                    "n={n} k={k} pos={pos}"
                );
            }
            let noise: Vec<u8> = (0..n).map(|i| (i * 151 + 13) as u8).collect();
            assert_eq!(rs.syndromes(&noise), rs.syndromes_reference(&noise));
        }
    }

    #[test]
    fn table_encoder_matches_division_reference() {
        // Equivalence proof for the linear-map parity tables: identical to
        // the synthetic-division encoder on structured and pseudo-random
        // data, for every code geometry in use.
        for (n, k) in [(18usize, 16usize), (20, 16), (255, 223)] {
            let rs = ReedSolomon::new(n, k).unwrap();
            let mut fast = vec![0u8; n];
            let mut slow = vec![0xffu8; n];
            for seed in 0..64u32 {
                let data: Vec<u8> = (0..k)
                    .map(|i| {
                        ((i as u32).wrapping_mul(197).wrapping_add(seed * 5081 + 11) % 256) as u8
                    })
                    .collect();
                rs.encode_into(&data, &mut fast).unwrap();
                rs.encode_into_reference(&data, &mut slow).unwrap();
                assert_eq!(fast, slow, "n={n} k={k} seed={seed}");
            }
            // Unit vectors and all-zero exercise the ZERO_ROW paths.
            let mut unit = vec![0u8; k];
            for i in [0, k / 2, k - 1] {
                unit[i] = 0xb7;
                rs.encode_into(&unit, &mut fast).unwrap();
                rs.encode_into_reference(&unit, &mut slow).unwrap();
                assert_eq!(fast, slow, "n={n} k={k} unit at {i}");
                unit[i] = 0;
            }
            rs.encode_into(&unit, &mut fast).unwrap();
            assert!(fast.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn syndromes_all_zero_matches_syndromes() {
        for (n, k) in [(18usize, 16usize), (20, 16)] {
            let rs = ReedSolomon::new(n, k).unwrap();
            let data: Vec<u8> = (0..k).map(|i| (i * 37 + 9) as u8).collect();
            let cw = rs.encode(&data).unwrap();
            assert!(rs.syndromes_all_zero(&cw).unwrap());
            for pos in 0..n {
                let mut bad = cw.clone();
                bad[pos] ^= 0x21;
                assert!(!rs.syndromes_all_zero(&bad).unwrap(), "pos={pos}");
                assert!(bad.iter().any(|&b| b != 0));
            }
            assert_eq!(
                rs.syndromes_all_zero(&cw[..n - 1]),
                Err(RsError::LengthMismatch {
                    expected: n,
                    got: n - 1
                })
            );
        }
    }

    #[test]
    fn encode_into_matches_encode_and_checks_lengths() {
        let rs = ReedSolomon::new(18, 16).unwrap();
        let data: Vec<u8> = (0..16u8).map(|i| i.wrapping_mul(201)).collect();
        let mut cw = [0xffu8; 18];
        rs.encode_into(&data, &mut cw).unwrap();
        assert_eq!(cw.to_vec(), rs.encode(&data).unwrap());
        assert_eq!(
            rs.encode_into(&data, &mut [0u8; 17]),
            Err(RsError::LengthMismatch {
                expected: 18,
                got: 17
            })
        );
        assert_eq!(
            rs.encode_into(&[0u8; 15], &mut cw),
            Err(RsError::LengthMismatch {
                expected: 16,
                got: 15
            })
        );
    }

    #[test]
    fn parity_is_systematic() {
        let rs = ReedSolomon::new(18, 16).unwrap();
        let data: Vec<u8> = (0..16).collect();
        let cw = rs.encode(&data).unwrap();
        assert_eq!(&cw[..16], &data[..]);
    }

    #[test]
    fn all_zero_data_gives_zero_codeword() {
        let rs = ReedSolomon::new(18, 16).unwrap();
        let cw = rs.encode(&[0u8; 16]).unwrap();
        assert!(cw.iter().all(|&b| b == 0));
    }

    #[test]
    fn erasures_recover_two_dead_symbols_with_t1_code() {
        // RS(18,16): 2 parity symbols correct at most 1 unknown error,
        // but TWO known erasures (e + 2v = 2 <= 2t).
        let rs = ReedSolomon::new(18, 16).unwrap();
        let data: Vec<u8> = (0..16u8)
            .map(|i| i.wrapping_mul(91).wrapping_add(3))
            .collect();
        let cw = rs.encode(&data).unwrap();
        for (p1, p2) in [(0usize, 1usize), (3, 17), (16, 17), (5, 9)] {
            let mut bad = cw.clone();
            bad[p1] ^= 0x42;
            bad[p2] ^= 0x99;
            // Plain decoding fails on two unknown errors...
            let (_, plain) = rs.decode(&bad).unwrap();
            assert_ne!(plain, CorrectionOutcome::Clean);
            // ...but with the positions known, both are recovered.
            let (decoded, outcome) = rs.decode_with_erasures(&bad, &[p1, p2]).unwrap();
            assert_eq!(decoded, data, "erasures {p1},{p2}");
            assert!(matches!(outcome, CorrectionOutcome::Corrected { .. }));
        }
    }

    #[test]
    fn erasure_positions_may_be_healthy() {
        // Marking a chip that happens to read correctly must not corrupt.
        let rs = ReedSolomon::new(18, 16).unwrap();
        let data = [0x77u8; 16];
        let cw = rs.encode(&data).unwrap();
        let (decoded, outcome) = rs.decode_with_erasures(&cw, &[4]).unwrap();
        assert_eq!(decoded, data.to_vec());
        assert_eq!(outcome, CorrectionOutcome::Clean);
        // One real error at the marked spot:
        let mut bad = cw.clone();
        bad[4] ^= 0x10;
        let (decoded, outcome) = rs.decode_with_erasures(&bad, &[4]).unwrap();
        assert_eq!(decoded, data.to_vec());
        assert!(matches!(
            outcome,
            CorrectionOutcome::Corrected { symbols: 1 }
        ));
    }

    #[test]
    fn erasure_plus_stray_error_detected_or_fixed_by_fallback() {
        // One marked position + one unknown error elsewhere: e + 2v = 3 >
        // 2t = 2, so the decoder must not return wrong data as Corrected.
        let rs = ReedSolomon::new(18, 16).unwrap();
        let data = [0xa1u8; 16];
        let cw = rs.encode(&data).unwrap();
        let mut bad = cw.clone();
        bad[2] ^= 0x55; // marked
        bad[9] ^= 0x0f; // stray
        let (decoded, outcome) = rs.decode_with_erasures(&bad, &[2]).unwrap();
        if matches!(
            outcome,
            CorrectionOutcome::Corrected { .. } | CorrectionOutcome::Clean
        ) {
            assert_eq!(decoded, data.to_vec(), "usable result must be correct");
        }
    }

    #[test]
    fn too_many_erasures_flagged() {
        let rs = ReedSolomon::new(18, 16).unwrap();
        let data = [1u8; 16];
        let mut cw = rs.encode(&data).unwrap();
        cw[0] ^= 1;
        cw[1] ^= 2;
        cw[2] ^= 3;
        let (_, outcome) = rs.decode_with_erasures(&cw, &[0, 1, 2]).unwrap();
        assert_eq!(outcome, CorrectionOutcome::Uncorrectable);
    }

    #[test]
    fn long_code_roundtrip() {
        let rs = ReedSolomon::new(255, 223).unwrap();
        let data: Vec<u8> = (0..223u32).map(|i| (i * 7 % 256) as u8).collect();
        let cw = rs.encode(&data).unwrap();
        let mut bad = cw.clone();
        // t = 16: inject 16 errors.
        for i in 0..16 {
            bad[i * 15] ^= (i + 1) as u8;
        }
        let (decoded, outcome) = rs.decode(&bad).unwrap();
        assert_eq!(decoded, data);
        assert_eq!(outcome, CorrectionOutcome::Corrected { symbols: 16 });
    }
}

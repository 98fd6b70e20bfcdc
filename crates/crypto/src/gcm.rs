//! AES-GCM authenticated encryption (NIST SP 800-38D) — the engine the
//! paper's footnote 1 names for secure-memory MACs ("Authenticated
//! Encryption engines such as AES-GCM is typically used to ensure fast
//! encryption, decryption, and MAC calculation").
//!
//! GHASH multiplies in GF(2^128) with the polynomial
//! `x^128 + x^7 + x^2 + x + 1`; the tag binds ciphertext and additional
//! authenticated data (for secure memory: the line address and the
//! freshness counter travel in the IV/AAD). [`crate::mac::MacEngine`]
//! remains the default engine (HMAC-based); this module provides the
//! GCM-faithful alternative plus the standard test vectors.
//!
//! # Example
//!
//! ```
//! use soteria_crypto::gcm::AesGcm;
//!
//! let gcm = AesGcm::new([0u8; 16]);
//! let nonce = [1u8; 12];
//! let (ct, tag) = gcm.seal(&nonce, b"address|counter", b"secret line");
//! let pt = gcm.open(&nonce, b"address|counter", &ct, &tag).expect("authentic");
//! assert_eq!(pt, b"secret line");
//! ```

use crate::aes::Aes128;

// Bit-reflected convention of SP 800-38D: bit 0 is the x^0
// coefficient when blocks are read MSB-first; R = 0xe1 || 0^120.
const R: u128 = 0xe100_0000_0000_0000_0000_0000_0000_0000;

/// Multiplies two 128-bit blocks in GHASH's GF(2^128), one bit at a time.
///
/// This is the first-principles reference; the GHASH hot path uses the
/// Shoup 4-bit table method ([`AesGcm::gf128_mul_h`]) built from it.
fn gf128_mul(x: u128, y: u128) -> u128 {
    let mut z: u128 = 0;
    let mut v = y;
    for i in (0..128).rev() {
        if (x >> i) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// Multiplies by the field generator α (a one-bit right shift with
/// reduction, in the reflected convention).
const fn mul_alpha(v: u128) -> u128 {
    let shifted = v >> 1;
    if v & 1 == 1 {
        shifted ^ R
    } else {
        shifted
    }
}

/// Reduction table for the Shoup 4-bit GHASH method: `RED[n] = n · α^4`
/// for the four low-order bits `n` that a 4-bit shift pushes out. Key
/// independent, so built at compile time.
static RED: [u128; 16] = {
    let mut table = [0u128; 16];
    let mut n = 0;
    while n < 16 {
        let mut v = n as u128;
        let mut step = 0;
        while step < 4 {
            v = mul_alpha(v);
            step += 1;
        }
        table[n] = v;
        n += 1;
    }
    table
};

fn block_to_u128(b: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    buf[..b.len()].copy_from_slice(b);
    u128::from_be_bytes(buf)
}

/// One-time CPUID probe for carry-less multiply; `false` off x86-64.
fn pclmul_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAILABLE.get_or_init(|| is_x86_feature_detected!("pclmulqdq"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Folds a 256-bit carry-less product `(p_hi, p_lo)` of two reflected
/// GHASH operands back into GF(2^128).
///
/// In the reflected convention a u128 bit `j` holds the coefficient of
/// `t^(127-j)`, so integer-domain shifts swap direction and the 256-bit
/// product splits with a one-bit offset: after shifting the product left
/// one bit, `d_lo = p_lo << 1` is the reflected image of the *high*
/// (overflow) half `h` of the polynomial product and
/// `d_hi = (p_hi << 1) | (p_lo >> 127)` the image of the low half. The
/// overflow folds through `t^128 ≡ t^7 + t^2 + t + 1`: reflected,
/// `h·(1 + t + t^2 + t^7)` is `u ^ u>>1 ^ u>>2 ^ u>>7` with its own
/// 6-bit overflow `(u<<126) ^ (u<<121)` folded the same way once more
/// (deg h ≤ 126, so two folds terminate). Plain u128 ops — only the
/// 64×64 products themselves need the PCLMULQDQ intrinsic.
fn clmul_reduce(p_hi: u128, p_lo: u128) -> u128 {
    let d_hi = (p_hi << 1) | (p_lo >> 127);
    let u = p_lo << 1;
    let fold1 = u ^ (u >> 1) ^ (u >> 2) ^ (u >> 7);
    let o = (u << 126) ^ (u << 121);
    let fold2 = o ^ (o >> 1) ^ (o >> 2) ^ (o >> 7);
    d_hi ^ fold1 ^ fold2
}

/// Hardware carry-less multiply (PCLMULQDQ). Every function here
/// requires the `pclmulqdq` CPU feature; callers gate on
/// [`pclmul_available`].
#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_set_epi64x, _mm_storeu_si128, _mm_xor_si128,
    };

    /// Extracts a `__m128i` into a `u128` (low lane = low 64 bits).
    #[inline]
    fn to_u128(v: __m128i) -> u128 {
        let mut out = [0u8; 16];
        // SAFETY: `_mm_storeu_si128` is an unaligned store into the 16
        // writable bytes of a local array (SSE2, baseline on x86-64).
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), v) };
        u128::from_le_bytes(out)
    }

    /// 256-bit carry-less product of `x` and `y` as `(high, low)` u128s
    /// (schoolbook: four 64×64 PCLMULQDQ products).
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ (see [`super::pclmul_available`]).
    // SAFETY: unsafe solely for `#[target_feature]`; every caller
    // dispatches through the `is_x86_feature_detected!` CPUID probe
    // cached in `super::pclmul_available` (`use_clmul` flag).
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn clmul256(x: u128, y: u128) -> (u128, u128) {
        let xv = _mm_set_epi64x((x >> 64) as u64 as i64, x as u64 as i64);
        let yv = _mm_set_epi64x((y >> 64) as u64 as i64, y as u64 as i64);
        let lo = _mm_clmulepi64_si128(xv, yv, 0x00);
        let hi = _mm_clmulepi64_si128(xv, yv, 0x11);
        let mid = _mm_xor_si128(
            _mm_clmulepi64_si128(xv, yv, 0x10),
            _mm_clmulepi64_si128(xv, yv, 0x01),
        );
        let mid = to_u128(mid);
        (to_u128(hi) ^ (mid >> 64), to_u128(lo) ^ (mid << 64))
    }

    /// GHASH multiply `x · h` (one product, one reduction).
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ (see [`super::pclmul_available`]).
    // SAFETY: unsafe solely for `#[target_feature]`; every caller
    // dispatches through the `is_x86_feature_detected!` CPUID probe
    // cached in `super::pclmul_available` (`use_clmul` flag).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn mul(x: u128, h: u128) -> u128 {
        let (p_hi, p_lo) = clmul256(x, h);
        super::clmul_reduce(p_hi, p_lo)
    }

    /// Aggregated four-block GHASH step: computes
    /// `x0·H^4 ^ x1·H^3 ^ x2·H^2 ^ x3·H` with the four 256-bit products
    /// XORed before a single reduction — exact in GF(2^128), so
    /// bit-identical to four serial Horner steps.
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ (see [`super::pclmul_available`]).
    // SAFETY: unsafe solely for `#[target_feature]`; every caller
    // dispatches through the `is_x86_feature_detected!` CPUID probe
    // cached in `super::pclmul_available` (`use_clmul` flag).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn mul4(x0: u128, x1: u128, x2: u128, x3: u128, hpow: &[u128; 4]) -> u128 {
        let (a_hi, a_lo) = clmul256(x0, hpow[3]);
        let (b_hi, b_lo) = clmul256(x1, hpow[2]);
        let (c_hi, c_lo) = clmul256(x2, hpow[1]);
        let (d_hi, d_lo) = clmul256(x3, hpow[0]);
        super::clmul_reduce(a_hi ^ b_hi ^ c_hi ^ d_hi, a_lo ^ b_lo ^ c_lo ^ d_lo)
    }
}

/// AES-128-GCM.
#[derive(Clone, Debug)]
pub struct AesGcm {
    aes: Aes128,
    // Hash subkey E_K(0): read by the PCLMUL path and by the
    // table-vs-reference equivalence tests.
    h: u128,
    // Shoup table: ht[n] = (n << 124) · H, one entry per 4-bit nibble
    // value. Built once per key; every GHASH block is then 32 table
    // lookups instead of a 128-iteration branchy loop. The portable
    // fallback when the CPU lacks PCLMULQDQ.
    ht: [u128; 16],
    // Per-key powers [H, H^2, H^3, H^4], hoisted at construction for the
    // PCLMUL path's aggregated four-block GHASH step.
    hpow: [u128; 4],
    use_clmul: bool,
}

impl AesGcm {
    /// Creates a GCM instance from a 128-bit key.
    pub fn new(key: [u8; 16]) -> Self {
        let aes = Aes128::new(key);
        let h = u128::from_be_bytes(aes.encrypt_block(&[0u8; 16]));
        let ht = core::array::from_fn(|n| gf128_mul((n as u128) << 124, h));
        let h2 = gf128_mul(h, h);
        let hpow = [h, h2, gf128_mul(h2, h), gf128_mul(h2, h2)];
        Self {
            aes,
            h,
            ht,
            hpow,
            use_clmul: pclmul_available(),
        }
    }

    /// Disables the PCLMUL path on this instance (dispatch-off
    /// reference).
    pub fn force_software(mut self) -> Self {
        self.use_clmul = false;
        self
    }

    /// Multiplies `x` by the hash subkey `H` — PCLMULQDQ when the CPU has
    /// it, the Shoup table otherwise; bit-identical either way (and to
    /// `gf128_mul(x, H)`). Public as the per-block GHASH bench kernel.
    pub fn mul_h(&self, x: u128) -> u128 {
        #[cfg(target_arch = "x86_64")]
        if self.use_clmul {
            // SAFETY: `use_clmul` is set only after the CPUID probe in
            // `pclmul_available` confirmed the PCLMULQDQ extension.
            return unsafe { clmul::mul(x, self.h) };
        }
        self.mul_h_table(x)
    }

    /// Multiplies `x` by `H` using the 4-bit table method (bit-identical
    /// to `gf128_mul(x, self.h)`). Processes `x` lowest nibble first;
    /// each step multiplies the accumulator by α^4 via the compile-time
    /// `RED` table and folds in the next nibble's precomputed product.
    /// Public as the portable reference for the PCLMUL path.
    pub fn mul_h_table(&self, x: u128) -> u128 {
        let mut z: u128 = 0;
        let mut x = x;
        for _ in 0..32 {
            z = (z >> 4) ^ RED[(z & 0xf) as usize];
            z ^= self.ht[(x & 0xf) as usize];
            x >>= 4;
        }
        z
    }

    /// Absorbs `data` into the GHASH accumulator `y` (zero-padded
    /// 16-byte blocks). The PCLMUL path aggregates four blocks per
    /// reduction through the hoisted `hpow` powers; field arithmetic is
    /// exact, so the aggregated form is bit-identical to the serial
    /// Horner loop.
    fn ghash_update(&self, mut y: u128, data: &[u8]) -> u128 {
        #[cfg(target_arch = "x86_64")]
        if self.use_clmul {
            let mut quads = data.chunks_exact(64);
            for quad in &mut quads {
                let c0 = block_to_u128(&quad[0..16]);
                let c1 = block_to_u128(&quad[16..32]);
                let c2 = block_to_u128(&quad[32..48]);
                let c3 = block_to_u128(&quad[48..64]);
                // SAFETY: `use_clmul` is set only after the CPUID probe
                // in `pclmul_available` confirmed the PCLMULQDQ extension.
                y = unsafe { clmul::mul4(y ^ c0, c1, c2, c3, &self.hpow) };
            }
            for chunk in quads.remainder().chunks(16) {
                y = self.mul_h(y ^ block_to_u128(chunk));
            }
            return y;
        }
        for chunk in data.chunks(16) {
            y = self.mul_h_table(y ^ block_to_u128(chunk));
        }
        y
    }

    fn ghash(&self, aad: &[u8], ct: &[u8]) -> u128 {
        let mut y = self.ghash_update(0, aad);
        y = self.ghash_update(y, ct);
        let lengths = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
        self.mul_h(y ^ lengths)
    }

    fn counter_block(nonce: &[u8; 12], counter: u32) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(nonce);
        block[12..].copy_from_slice(&counter.to_be_bytes());
        block
    }

    fn ctr_xor(&self, nonce: &[u8; 12], data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len());
        for (i, chunk) in data.chunks(16).enumerate() {
            let pad = self
                .aes
                .encrypt_block(&Self::counter_block(nonce, 2 + i as u32));
            out.extend(chunk.iter().zip(pad.iter()).map(|(d, p)| d ^ p));
        }
        out
    }

    /// Encrypts `plaintext` and authenticates it together with `aad`,
    /// returning (ciphertext, 128-bit tag).
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> (Vec<u8>, [u8; 16]) {
        let ciphertext = self.ctr_xor(nonce, plaintext);
        let s = self.ghash(aad, &ciphertext);
        let e_j0 = u128::from_be_bytes(self.aes.encrypt_block(&Self::counter_block(nonce, 1)));
        let tag = (s ^ e_j0).to_be_bytes();
        (ciphertext, tag)
    }

    /// Verifies and decrypts. Returns `None` on authentication failure
    /// (tampered ciphertext, AAD, nonce or tag).
    pub fn open(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8; 16],
    ) -> Option<Vec<u8>> {
        let s = self.ghash(aad, ciphertext);
        let e_j0 = u128::from_be_bytes(self.aes.encrypt_block(&Self::counter_block(nonce, 1)));
        let expected = (s ^ e_j0).to_be_bytes();
        if &expected != tag {
            return None;
        }
        Some(self.ctr_xor(nonce, ciphertext))
    }

    /// A 64-bit secure-memory tag over an encrypted 64-byte line, bound
    /// to the line address and its encryption counter (the GCM-faithful
    /// equivalent of [`crate::mac::MacEngine::data_mac`]; truncation to 64
    /// bits matches the paper's tag width and collision bound, §3.2.2).
    pub fn line_tag(&self, address: u64, ciphertext: &[u8; 64], counter: u64) -> u64 {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&counter.to_le_bytes());
        nonce[8..12].copy_from_slice(&(address as u32).to_le_bytes());
        let aad = [address.to_le_bytes(), counter.to_le_bytes()].concat();
        let s = self.ghash(&aad, ciphertext);
        let e_j0 = u128::from_be_bytes(self.aes.encrypt_block(&Self::counter_block(&nonce, 1)));
        ((s ^ e_j0) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn nist_test_case_1_empty() {
        // SP 800-38D test case 1: zero key, zero nonce, empty everything.
        let gcm = AesGcm::new([0u8; 16]);
        let (ct, tag) = gcm.seal(&[0u8; 12], b"", b"");
        assert!(ct.is_empty());
        assert_eq!(tag.to_vec(), hex("58e2fccefa7e3061367f1d57a4e7455a"));
    }

    #[test]
    fn nist_test_case_2_single_block() {
        // Test case 2: zero key/nonce, one zero plaintext block.
        let gcm = AesGcm::new([0u8; 16]);
        let (ct, tag) = gcm.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(ct, hex("0388dace60b6a392f328c2b971b2fe78"));
        assert_eq!(tag.to_vec(), hex("ab6e47d42cec13bdf53a67b21257bddf"));
    }

    #[test]
    fn nist_test_case_3_four_blocks() {
        // Test case 3: the classic feffe992... vector.
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let gcm = AesGcm::new(key);
        let (ct, tag) = gcm.seal(&nonce, b"", &pt);
        assert_eq!(
            ct,
            hex(
                "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
            )
        );
        assert_eq!(tag.to_vec(), hex("4d5c2af327cd64a62cf35abd2ba6fab4"));
    }

    #[test]
    fn nist_test_case_4_with_aad() {
        // Test case 4: truncated plaintext + AAD.
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let gcm = AesGcm::new(key);
        let (ct, tag) = gcm.seal(&nonce, &aad, &pt);
        assert_eq!(tag.to_vec(), hex("5bc94fbc3221a5db94fae95ae7121a47"));
        let back = gcm
            .open(&nonce, &aad, &ct, &tag.to_vec().try_into().unwrap())
            .unwrap();
        assert_eq!(back, pt);
    }

    #[test]
    fn tamper_rejected() {
        let gcm = AesGcm::new([7u8; 16]);
        let nonce = [3u8; 12];
        let (mut ct, tag) = gcm.seal(&nonce, b"aad", b"payload");
        ct[0] ^= 1;
        assert!(gcm.open(&nonce, b"aad", &ct, &tag).is_none());
    }

    #[test]
    fn aad_is_bound() {
        let gcm = AesGcm::new([7u8; 16]);
        let nonce = [3u8; 12];
        let (ct, tag) = gcm.seal(&nonce, b"addr=64", b"payload");
        assert!(gcm.open(&nonce, b"addr=128", &ct, &tag).is_none());
        assert!(gcm.open(&nonce, b"addr=64", &ct, &tag).is_some());
    }

    #[test]
    fn line_tag_binds_address_and_counter() {
        let gcm = AesGcm::new([9u8; 16]);
        let line = [0x5au8; 64];
        let t = gcm.line_tag(64, &line, 7);
        assert_ne!(t, gcm.line_tag(128, &line, 7));
        assert_ne!(t, gcm.line_tag(64, &line, 8));
        assert_eq!(t, gcm.line_tag(64, &line, 7));
    }

    #[test]
    fn table_ghash_matches_bitwise_reference() {
        // Equivalence proof: the Shoup 4-bit path must equal the bitwise
        // gf128_mul for the instance's H on structured and pseudo-random
        // operands.
        let gcm = AesGcm::new([0x42u8; 16]);
        let mut x = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        for i in 0..200u32 {
            assert_eq!(gcm.mul_h_table(x), gf128_mul(x, gcm.h), "iter {i}");
            // xorshift-style scramble to vary every nibble.
            x ^= x << 13;
            x ^= x >> 61;
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d_0123_4567_89ab_cdefu128) ^ i as u128;
        }
        for x in [0u128, 1, 1 << 127, u128::MAX, R] {
            assert_eq!(gcm.mul_h_table(x), gf128_mul(x, gcm.h));
        }
    }

    #[test]
    fn clmul_matches_bitwise_reference() {
        // The dispatched multiply (PCLMUL where the CPU has it) must
        // equal the bitwise gf128_mul on structured and pseudo-random
        // operands; without PCLMULQDQ this pins the table path again.
        let gcm = AesGcm::new([0x42u8; 16]);
        let mut x = 0xdead_beef_0bad_cafe_1234_5678_9abc_def0u128;
        for i in 0..200u32 {
            assert_eq!(gcm.mul_h(x), gf128_mul(x, gcm.h), "iter {i}");
            x ^= x << 13;
            x ^= x >> 61;
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d_0123_4567_89ab_cdefu128) ^ i as u128;
        }
        for x in [0u128, 1, 1 << 127, u128::MAX, R] {
            assert_eq!(gcm.mul_h(x), gf128_mul(x, gcm.h));
        }
    }

    #[test]
    fn hpow_matches_repeated_multiplication() {
        let gcm = AesGcm::new([0x42u8; 16]);
        let mut p = gcm.h;
        for (i, &hp) in gcm.hpow.iter().enumerate() {
            assert_eq!(hp, p, "H^{}", i + 1);
            p = gf128_mul(p, gcm.h);
        }
    }

    #[test]
    fn aggregated_ghash_matches_serial() {
        // seal/line_tag on the dispatched instance (four-block aggregated
        // PCLMUL path) vs the same key forced through the serial Shoup
        // table — tags and ciphertext must be byte-identical, across
        // lengths that hit the 64-byte aggregation boundary and every
        // remainder shape.
        let fast = AesGcm::new([0x5cu8; 16]);
        let slow = AesGcm::new([0x5cu8; 16]).force_software();
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(131) % 256) as u8)
            .collect();
        let nonce = [0xa7u8; 12];
        for len in [0, 1, 15, 16, 17, 48, 63, 64, 65, 128, 130, 192, 200] {
            let (ct_f, tag_f) = fast.seal(&nonce, &data[..len / 2], &data[..len]);
            let (ct_s, tag_s) = slow.seal(&nonce, &data[..len / 2], &data[..len]);
            assert_eq!(ct_f, ct_s, "len {len}");
            assert_eq!(tag_f, tag_s, "len {len}");
        }
        let mut line = [0u8; 64];
        line.copy_from_slice(&data[..64]);
        assert_eq!(fast.line_tag(0x40, &line, 9), slow.line_tag(0x40, &line, 9));
    }

    #[test]
    fn red_table_matches_alpha_powers() {
        for n in 0..16u128 {
            let mut v = n;
            for _ in 0..4 {
                v = mul_alpha(v);
            }
            assert_eq!(RED[n as usize], v);
            // And against the bitwise multiply: α^4 is (1 << 123) in the
            // reflected convention (bit 127 is α^0).
            assert_eq!(RED[n as usize], gf128_mul(n, 1u128 << 123));
        }
    }

    #[test]
    fn gf128_mul_properties() {
        let a = 0x0123_4567_89ab_cdef_0011_2233_4455_6677u128;
        let b = 0xfedc_ba98_7654_3210_8899_aabb_ccdd_eeffu128;
        let c = 0x0f0f_f0f0_1234_5678_9abc_def0_1357_9bdfu128;
        // Commutative, distributive over XOR.
        assert_eq!(gf128_mul(a, b), gf128_mul(b, a));
        assert_eq!(gf128_mul(a, b ^ c), gf128_mul(a, b) ^ gf128_mul(a, c));
        // Multiplication by the MSB-first "one" (x^0 coefficient set).
        let one = 1u128 << 127;
        assert_eq!(gf128_mul(a, one), a);
    }
}

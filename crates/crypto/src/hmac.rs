//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! # Example
//!
//! ```
//! use soteria_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"message");
//! assert_eq!(tag.len(), 32);
//! ```

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// Computes HMAC-SHA-256 over `message` with `key`.
///
/// Keys longer than the 64-byte SHA-256 block are hashed first, per the
/// HMAC specification.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut hmac = HmacSha256::new(key);
    hmac.update(message);
    hmac.finalize()
}

/// Incremental HMAC-SHA-256 computation.
///
/// Useful when a MAC covers several discontiguous fields (address, payload,
/// binding counter) without concatenating them into a scratch buffer.
///
/// Both the inner (`key ^ ipad`) and outer (`key ^ opad`) block are
/// compressed eagerly in [`HmacSha256::new`], so the struct holds two
/// SHA-256 **midstates**. Cloning a keyed instance therefore restarts a
/// MAC without redoing either key compression — [`crate::mac::MacEngine`]
/// relies on this to amortize the key schedule across millions of
/// per-line tags.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Starts a new HMAC computation with `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad_key = [0u8; BLOCK];
        let mut opad_key = [0u8; BLOCK];
        for i in 0..BLOCK {
            ipad_key[i] = k[i] ^ 0x36;
            opad_key[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad_key);
        let mut outer = Sha256::new();
        outer.update(&opad_key);
        Self { inner, outer }
    }

    /// Feeds more message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the computation and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Block-aligned fast path for the controller's fixed MAC shape: the
    /// tag over `header ∥ payload` (17 + 64 bytes).
    ///
    /// The 81-byte message lands on known block boundaries, so both inner
    /// padding blocks and the outer block are laid out directly on the
    /// stack and fed to three raw compressions from the cached midstates —
    /// no template clone, no streaming buffer, no per-call padding logic.
    /// Bit-identical to `clone` + [`HmacSha256::update`] +
    /// [`HmacSha256::finalize`] over the same bytes.
    pub fn tag_header64(&self, header: &[u8; 17], payload: &[u8; 64]) -> [u8; 32] {
        let use_ni = self.inner.uses_ni();

        // Inner hash: ipad block (already compressed into the midstate)
        // then 81 message bytes → one full block + one padded block.
        // Total inner input is 64 + 81 = 145 bytes = 1160 bits.
        let mut state = self.inner.block_aligned_state();
        let mut block = [0u8; 64];
        block[..17].copy_from_slice(header);
        block[17..].copy_from_slice(&payload[..47]);
        Sha256::compress_raw(&mut state, &block, use_ni);
        let mut tail = [0u8; 64];
        tail[..17].copy_from_slice(&payload[47..]);
        tail[17] = 0x80;
        tail[56..].copy_from_slice(&1160u64.to_be_bytes());
        Sha256::compress_raw(&mut state, &tail, use_ni);
        let inner_digest = Sha256::state_bytes(&state);

        // Outer hash: opad block (midstate) + 32 digest bytes = 96 bytes
        // = 768 bits, padded within a single block.
        let mut state = self.outer.block_aligned_state();
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(&inner_digest);
        block[32] = 0x80;
        block[56..].copy_from_slice(&768u64.to_be_bytes());
        Sha256::compress_raw(&mut state, &block, use_ni);
        Sha256::state_bytes(&state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let tag = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let tag = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        // Key longer than one block must be hashed first.
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = HmacSha256::new(b"k");
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), hmac_sha256(b"k", b"hello world"));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"a", b"msg"), hmac_sha256(b"b", b"msg"));
    }

    #[test]
    fn tag_header64_matches_streaming() {
        let mut x = 0x452821e638d01377u64;
        let mut fill = |buf: &mut [u8]| {
            for b in buf.iter_mut() {
                x = x
                    .wrapping_mul(0xbf58476d1ce4e5b9)
                    .wrapping_add(0x94d049bb133111eb);
                *b = (x >> 40) as u8;
            }
        };
        for key_len in [0usize, 1, 32, 64, 100] {
            let mut key = vec![0u8; key_len];
            fill(&mut key);
            let engine = HmacSha256::new(&key);
            for _ in 0..8 {
                let mut header = [0u8; 17];
                let mut payload = [0u8; 64];
                fill(&mut header);
                fill(&mut payload);
                let mut streaming = engine.clone();
                streaming.update(&header);
                streaming.update(&payload);
                assert_eq!(
                    engine.tag_header64(&header, &payload),
                    streaming.finalize(),
                    "key_len {key_len}"
                );
            }
        }
    }
}

//! Split-counter blocks: the leaves (L1) of the integrity tree.
//!
//! Following VAULT/Yan et al. (§2.4), one 64-byte block packs the
//! encryption counters of a whole 4 KiB page: a 64-bit **major** counter
//! plus 64 × 7-bit **minor** counters (64 + 448 = 512 bits exactly). The
//! per-line encryption counter is `major * 128 + minor`.
//!
//! When a minor counter overflows, the major counter increments, all
//! minors reset, and the controller must re-encrypt the whole page with
//! the new major — the split-counter cost the paper discusses.
//!
//! # Example
//!
//! ```
//! use soteria::counter::{BumpOutcome, CounterBlock};
//!
//! let mut block = CounterBlock::new();
//! assert_eq!(block.bump(3), BumpOutcome::Bumped { counter: 1 });
//! assert_eq!(block.counter(3), 1);
//! assert_eq!(block.counter(4), 0);
//! ```

/// Minor counters per block (one per line of the page).
pub const MINORS: usize = 64;
/// Minor counter width in bits.
pub const MINOR_BITS: u32 = 7;
/// Exclusive upper bound of a minor counter.
pub const MINOR_LIMIT: u8 = 1 << MINOR_BITS; // 128
/// Minors packed per 56-bit word of the serialized block.
const MINORS_PER_WORD: usize = 8;
/// Bytes of one packed word (8 minors × 7 bits).
const WORD_BYTES: usize = 7;

/// Result of bumping a minor counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BumpOutcome {
    /// Minor incremented; `counter` is the new combined counter value.
    Bumped {
        /// New combined counter for the line.
        counter: u64,
    },
    /// Minor would overflow: the block performed a major bump (major + 1,
    /// all minors reset). The caller must re-encrypt the entire page under
    /// the new counters. `counter` is the line's new combined counter.
    PageReencrypt {
        /// New combined counter for the line (after the major bump).
        counter: u64,
    },
}

/// A 64-ary split-counter block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterBlock {
    major: u64,
    minors: [u8; MINORS],
}

impl Default for CounterBlock {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterBlock {
    /// A fresh block: all counters zero.
    pub fn new() -> Self {
        Self {
            major: 0,
            minors: [0; MINORS],
        }
    }

    /// The major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// The minor counter of `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    pub fn minor(&self, slot: usize) -> u8 {
        self.minors[slot]
    }

    /// The combined encryption counter of `slot`.
    ///
    /// Wraps at 2^64 (reaching that would need 2^57 major bumps — never
    /// in a device's lifetime; wrapping keeps the accessor total even on
    /// corrupt deserialized blocks).
    pub fn counter(&self, slot: usize) -> u64 {
        self.major
            .wrapping_mul(MINOR_LIMIT as u64)
            .wrapping_add(self.minors[slot] as u64)
    }

    /// Increments the minor counter of `slot`.
    ///
    /// On overflow the block bumps its major, resets every minor and
    /// reports [`BumpOutcome::PageReencrypt`].
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    pub fn bump(&mut self, slot: usize) -> BumpOutcome {
        if self.minors[slot] + 1 == MINOR_LIMIT {
            self.major += 1;
            self.minors = [0; MINORS];
            BumpOutcome::PageReencrypt {
                counter: self.counter(slot),
            }
        } else {
            self.minors[slot] += 1;
            BumpOutcome::Bumped {
                counter: self.counter(slot),
            }
        }
    }

    /// Sets the minor counter of `slot` (recovery rebuilding a block it
    /// could not bump: the stored minor plus the trials that matched).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64` or `minor >= MINOR_LIMIT`.
    pub fn set_minor(&mut self, slot: usize, minor: u8) {
        assert!(minor < MINOR_LIMIT, "minor {minor} exceeds 7 bits");
        self.minors[slot] = minor;
    }

    /// Sets the major counter, leaving the minors as they are.
    pub fn set_major(&mut self, major: u64) {
        self.major = major;
    }

    /// Serializes into a 64-byte line: major (8 B LE) then the 64 minors
    /// packed 7 bits each (56 B), little-endian bit order. Eight minors
    /// fill exactly one 56-bit word, so each group of eight packs into a
    /// `u64` and is stored as 7 bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        for (group, minors) in self.minors.chunks_exact(MINORS_PER_WORD).enumerate() {
            let word = minors
                .iter()
                .rev()
                .fold(0u64, |w, &m| (w << MINOR_BITS) | u64::from(m));
            let at = 8 + group * WORD_BYTES;
            out[at..at + WORD_BYTES].copy_from_slice(&word.to_le_bytes()[..WORD_BYTES]);
        }
        out
    }

    /// Deserializes from a 64-byte line.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        let major = soteria_rt::bytes::u64_le(&bytes[..8]);
        let mut minors = [0u8; MINORS];
        for (group, minors) in minors.chunks_exact_mut(MINORS_PER_WORD).enumerate() {
            let at = 8 + group * WORD_BYTES;
            let mut le = [0u8; 8];
            le[..WORD_BYTES].copy_from_slice(&bytes[at..at + WORD_BYTES]);
            let mut word = u64::from_le_bytes(le);
            for m in minors {
                *m = (word & (MINOR_LIMIT as u64 - 1)) as u8;
                word >>= MINOR_BITS;
            }
        }
        Self { major, minors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_zero() {
        let b = CounterBlock::new();
        for slot in 0..MINORS {
            assert_eq!(b.counter(slot), 0);
        }
        assert_eq!(b.major(), 0);
    }

    #[test]
    fn bump_increments_one_slot() {
        let mut b = CounterBlock::new();
        assert_eq!(b.bump(10), BumpOutcome::Bumped { counter: 1 });
        assert_eq!(b.counter(10), 1);
        assert_eq!(b.counter(11), 0);
    }

    #[test]
    fn overflow_triggers_page_reencrypt() {
        let mut b = CounterBlock::new();
        for i in 1..=127 {
            assert_eq!(b.bump(0), BumpOutcome::Bumped { counter: i });
        }
        // 128th bump overflows the 7-bit minor.
        assert_eq!(b.bump(0), BumpOutcome::PageReencrypt { counter: 128 });
        assert_eq!(b.major(), 1);
        for slot in 0..MINORS {
            assert_eq!(b.minor(slot), 0);
        }
    }

    #[test]
    fn counters_are_strictly_monotonic_across_overflow() {
        let mut b = CounterBlock::new();
        let mut last = 0;
        for _ in 0..1000 {
            let c = match b.bump(5) {
                BumpOutcome::Bumped { counter } | BumpOutcome::PageReencrypt { counter } => counter,
            };
            assert!(c > last, "counter must never repeat ({c} after {last})");
            last = c;
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let mut b = CounterBlock::new();
        for slot in 0..MINORS {
            for _ in 0..(slot % 7) {
                b.bump(slot);
            }
        }
        b.major = 0xdead_beef_1234;
        let restored = CounterBlock::from_bytes(&b.to_bytes());
        assert_eq!(restored, b);
    }

    #[test]
    fn serialization_uses_all_64_bytes_distinctly() {
        // Max-valued minors everywhere must round-trip (packing boundary
        // conditions).
        let mut b = CounterBlock::new();
        b.minors = [MINOR_LIMIT - 1; MINORS];
        b.major = u64::MAX;
        assert_eq!(CounterBlock::from_bytes(&b.to_bytes()), b);
    }

    /// The bit-serial codec the word-wise one replaced, kept as the
    /// reference it must match.
    fn to_bytes_bitwise(block: &CounterBlock) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&block.major.to_le_bytes());
        let mut bitpos = 0usize;
        for &m in &block.minors {
            let byte = 8 + bitpos / 8;
            let shift = bitpos % 8;
            out[byte] |= m << shift;
            if shift > 1 {
                out[byte + 1] |= m >> (8 - shift);
            }
            bitpos += MINOR_BITS as usize;
        }
        out
    }

    fn from_bytes_bitwise(bytes: &[u8; 64]) -> CounterBlock {
        let major = soteria_rt::bytes::u64_le(&bytes[..8]);
        let mut minors = [0u8; MINORS];
        let mut bitpos = 0usize;
        for m in &mut minors {
            let byte = 8 + bitpos / 8;
            let shift = bitpos % 8;
            let mut v = (bytes[byte] >> shift) as u16;
            if shift > 1 {
                v |= (bytes[byte + 1] as u16) << (8 - shift);
            }
            *m = (v & (MINOR_LIMIT as u16 - 1)) as u8;
            bitpos += MINOR_BITS as usize;
        }
        CounterBlock { major, minors }
    }

    #[test]
    fn codec_matches_the_bit_serial_reference() {
        use soteria_rt::prop::{any, array, check, vec, Config};
        use soteria_rt::prop_assert_eq;
        check(
            "counter_codec_matches_the_bit_serial_reference",
            &Config::with_cases(256),
            &(
                any::<u64>(),
                vec(0u8..MINOR_LIMIT, 64usize),
                array::<_, 64>(any::<u8>()),
            ),
            |(major, minors, line)| {
                let mut block = CounterBlock::new();
                block.set_major(*major);
                for (slot, &m) in minors.iter().enumerate() {
                    block.set_minor(slot, m);
                }
                prop_assert_eq!(block.to_bytes(), to_bytes_bitwise(&block));
                prop_assert_eq!(CounterBlock::from_bytes(line), from_bytes_bitwise(line));
                prop_assert_eq!(CounterBlock::from_bytes(&block.to_bytes()), block);
                Ok(())
            },
        );
    }

    #[test]
    fn setters_change_one_field() {
        let mut b = CounterBlock::new();
        b.bump(3);
        b.set_minor(9, 127);
        b.set_major(7);
        assert_eq!(
            (b.major(), b.minor(3), b.minor(9), b.minor(10)),
            (7, 1, 127, 0)
        );
        assert_eq!(b.counter(9), 7 * 128 + 127);
    }

    #[test]
    #[should_panic(expected = "exceeds 7 bits")]
    fn set_minor_rejects_eight_bits() {
        CounterBlock::new().set_minor(0, MINOR_LIMIT);
    }

    #[test]
    fn distinct_slots_serialize_distinctly() {
        let mut a = CounterBlock::new();
        a.bump(0);
        let mut b = CounterBlock::new();
        b.bump(1);
        assert_ne!(a.to_bytes(), b.to_bytes());
    }
}

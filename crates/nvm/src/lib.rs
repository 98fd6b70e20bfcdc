#![warn(missing_docs)]

//! Non-volatile DIMM device model for the Soteria reproduction.
//!
//! This crate is the hardware substrate under the secure memory
//! controller: a PCM-like DIMM with
//!
//! * [`geometry`] — the Table 4 chip/rank/bank/row/column organization and
//!   the physical address mapping,
//! * [`device`] — byte-accurate storage of **ECC-encoded codewords**
//!   ([`soteria_ecc::chipkill`]) with lazy fault overlays, so reads really
//!   decode through the configured ECC and report
//!   [`soteria_ecc::CorrectionOutcome`]s,
//! * [`fault`] — the DRAM-study fault taxonomy (single-bit / word / column
//!   / row / bank, multi-bank, multi-rank) used by the FaultSim campaigns,
//! * [`wpq`] — the Write Pending Queue with ADR (asynchronous DRAM
//!   refresh) persistence semantics and atomic commit groups (§3.2.1),
//! * [`wear`] — start-gap wear leveling [Qureshi et al., MICRO 2009],
//! * [`timing`] — PCM latencies (150 ns read / 300 ns write) with a
//!   per-bank busy model for the performance simulator.
//!
//! # Example
//!
//! ```
//! use soteria_nvm::device::NvmDimm;
//! use soteria_nvm::geometry::DimmGeometry;
//! use soteria_nvm::LineAddr;
//!
//! let mut dimm = NvmDimm::chipkill(DimmGeometry::table4());
//! let addr = LineAddr::new(42);
//! dimm.write_line(addr, &[7u8; 64]);
//! let (line, outcome) = dimm.read_line(addr);
//! assert_eq!(line, [7u8; 64]);
//! assert!(outcome.is_usable());
//! ```

pub mod device;
pub mod fault;
pub mod geometry;
mod paged;
pub mod timing;
pub mod wear;
pub mod wpq;

/// The size of a memory line in bytes, fixed at 64 throughout the model.
pub const LINE_BYTES: u64 = 64;

/// The index of a 64-byte line within a memory.
///
/// A newtype rather than a bare `u64` so byte addresses and line indices
/// can never be confused (C-NEWTYPE).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address from a line index.
    pub fn new(index: u64) -> Self {
        Self(index)
    }

    /// Creates a line address from a byte address.
    ///
    /// # Panics
    ///
    /// Panics if `byte_addr` is not 64-byte aligned.
    pub fn from_byte_addr(byte_addr: u64) -> Self {
        assert!(
            byte_addr.is_multiple_of(LINE_BYTES),
            "byte address {byte_addr:#x} is not line-aligned"
        );
        Self(byte_addr / LINE_BYTES)
    }

    /// Returns the line index.
    pub fn index(self) -> u64 {
        self.0
    }

    /// Returns the byte address of the start of this line.
    pub fn byte_addr(self) -> u64 {
        self.0 * LINE_BYTES
    }

    /// Returns the line `offset` lines after this one.
    pub fn offset(self, offset: u64) -> Self {
        Self(self.0 + offset)
    }
}

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_addr_roundtrip() {
        let a = LineAddr::from_byte_addr(0x1000);
        assert_eq!(a.index(), 0x40);
        assert_eq!(a.byte_addr(), 0x1000);
    }

    #[test]
    #[should_panic(expected = "not line-aligned")]
    fn unaligned_byte_addr_panics() {
        let _ = LineAddr::from_byte_addr(0x1001);
    }

    #[test]
    fn offset_advances() {
        assert_eq!(LineAddr::new(10).offset(5), LineAddr::new(15));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!LineAddr::new(3).to_string().is_empty());
    }
}

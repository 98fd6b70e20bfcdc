//! Trace capture and replay: record any workload's operation stream to a
//! compact binary file and play it back later — or bring traces from a
//! real system (e.g. PIN/DynamoRIO memory traces converted to this
//! format) and drive the simulator with them.
//!
//! # Format
//!
//! A 16-byte header (`magic "SOTR1\0\0\0"`, u64 little-endian op count)
//! followed by 16 bytes per operation:
//!
//! ```text
//! offset 0  u64 LE  byte address
//! offset 8  u8      kind (0 = read, 1 = write)
//! offset 9  u8      persistent (0/1)
//! offset 10 u32 LE  think cycles
//! offset 14 u16     reserved (zero)
//! ```
//!
//! # Example
//!
//! ```no_run
//! use soteria_workloads::trace::{record, ReplayWorkload};
//! use soteria_workloads::{UBench, Workload};
//!
//! record(&mut UBench::new(64, 1 << 20), 10_000, "ubench.trace")?;
//! let mut replay = ReplayWorkload::open("ubench.trace")?;
//! assert_eq!(replay.remaining(), 10_000);
//! # Ok::<(), std::io::Error>(())
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{MemOp, OpKind, Workload};

const MAGIC: &[u8; 8] = b"SOTR1\0\0\0";
const OP_BYTES: usize = 16;

/// Records `ops` operations of `workload` into the trace file at `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn record(
    workload: &mut dyn Workload,
    ops: u64,
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    out.write_all(MAGIC)?;
    out.write_all(&ops.to_le_bytes())?;
    for _ in 0..ops {
        let op = workload.next_op();
        let mut buf = [0u8; OP_BYTES];
        buf[..8].copy_from_slice(&op.addr.to_le_bytes());
        buf[8] = match op.kind {
            OpKind::Read => 0,
            OpKind::Write => 1,
        };
        buf[9] = u8::from(op.persistent);
        buf[10..14].copy_from_slice(&op.think.to_le_bytes());
        out.write_all(&buf)?;
    }
    out.flush()
}

/// A workload that replays a recorded trace (looping when exhausted, so
/// it satisfies the infinite-stream contract of [`Workload`]).
#[derive(Debug)]
pub struct ReplayWorkload {
    name: String,
    ops: Vec<MemOp>,
    cursor: usize,
    footprint: u64,
}

impl ReplayWorkload {
    /// Loads a trace file.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for files without the trace magic or with a
    /// truncated body.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref();
        let mut input = BufReader::new(File::open(path)?);
        let mut header = [0u8; 16];
        input.read_exact(&mut header)?;
        if &header[..8] != MAGIC {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "not a soteria trace (bad magic)",
            ));
        }
        let count = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let mut ops = Vec::with_capacity(count as usize);
        let mut footprint = 64u64;
        for _ in 0..count {
            let mut buf = [0u8; OP_BYTES];
            input.read_exact(&mut buf).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "truncated trace body")
            })?;
            let addr = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
            let kind = if buf[8] == 0 {
                OpKind::Read
            } else {
                OpKind::Write
            };
            let persistent = buf[9] != 0;
            let think = u32::from_le_bytes(buf[10..14].try_into().expect("4 bytes"));
            footprint = footprint.max(addr + 64);
            ops.push(MemOp {
                kind,
                addr,
                persistent,
                think,
            });
        }
        if ops.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "empty trace",
            ));
        }
        let name = path
            .file_stem()
            .map(|s| format!("trace:{}", s.to_string_lossy()))
            .unwrap_or_else(|| "trace".to_string());
        Ok(Self {
            name,
            ops,
            cursor: 0,
            footprint,
        })
    }

    /// Operations left before the replay wraps around.
    pub fn remaining(&self) -> usize {
        self.ops.len() - self.cursor
    }

    /// Total operations in the trace.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace holds no operations (never true for a
    /// successfully opened file).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl Workload for ReplayWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn is_persistent(&self) -> bool {
        self.ops.iter().any(|op| op.persistent)
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    fn next_op(&mut self) -> MemOp {
        let op = self.ops[self.cursor];
        self.cursor = (self.cursor + 1) % self.ops.len();
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sps, UBench};

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("soteria_trace_{name}_{}", std::process::id()))
    }

    #[test]
    fn record_replay_roundtrip() {
        let path = temp("roundtrip");
        record(&mut Sps::new(1 << 20, 5), 500, &path).unwrap();
        let mut replay = ReplayWorkload::open(&path).unwrap();
        let mut original = Sps::new(1 << 20, 5);
        assert_eq!(replay.len(), 500);
        for i in 0..500 {
            assert_eq!(replay.next_op(), original.next_op(), "op {i}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_wraps_around() {
        let path = temp("wrap");
        record(&mut UBench::new(64, 1 << 12), 10, &path).unwrap();
        let mut replay = ReplayWorkload::open(&path).unwrap();
        let first = replay.next_op();
        for _ in 0..9 {
            replay.next_op();
        }
        assert_eq!(replay.next_op(), first, "stream loops");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn footprint_covers_max_address() {
        let path = temp("footprint");
        record(&mut UBench::new(256, 1 << 14), 200, &path).unwrap();
        let replay = ReplayWorkload::open(&path).unwrap();
        assert!(replay.footprint_bytes() <= 1 << 14);
        assert!(replay.footprint_bytes() > 1 << 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = temp("badmagic");
        std::fs::write(&path, b"NOT A TRACE FILE").unwrap();
        assert!(ReplayWorkload::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_body_rejected() {
        let path = temp("trunc");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&10u64.to_le_bytes()); // claims 10 ops
        bytes.extend_from_slice(&[0u8; 16]); // provides 1
        std::fs::write(&path, &bytes).unwrap();
        assert!(ReplayWorkload::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}

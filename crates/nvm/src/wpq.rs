//! The Write Pending Queue (WPQ) with ADR persistence semantics.
//!
//! On Intel platforms the WPQ is the last stop before the NVM media and
//! lies inside the ADR (Asynchronous DRAM Refresh) power-fail domain: once
//! a write is accepted into the WPQ it is guaranteed durable even across a
//! power loss (§3.2.1, [Edirisooriya et al.], [Wang et al., MICRO 2020]).
//!
//! Soteria's clone commits lean on this: all clones of an evicted node
//! must enter the WPQ **atomically** (all or none), which bounds the
//! maximum useful clone depth by the WPQ size — the reason Table 2 caps
//! SAC at depth 5 given a minimum 8-entry WPQ.

//!
//! For crash-consistency checking the queue carries three optional
//! instruments (all inert unless enabled, zero cost in the hot path):
//!
//! * an **event clock** counting every durability-relevant step — each
//!   group accept and each stall-forced drain (`push` is an accept of a
//!   group of one). ADR flush steps do **not** tick the clock: flushing
//!   is what makes accepts durable, not a new media state a crash could
//!   expose at;
//! * a **crash fuse** ([`WritePendingQueue::arm_crash_at_event`]): after
//!   the armed event completes the queue is *dead* — a dead queue
//!   silently drops every subsequent accept (writes the powered-off CPU
//!   never issued) while `flush` still drains everything accepted
//!   before death, exactly as ADR would;
//! * a **journal** of accepts and drains as
//!   [`soteria_rt::crashck::WpqEventRecord`]s, replayable against the
//!   pure queue model in `rt::crashck`.

use std::collections::VecDeque;

use soteria_rt::crashck::{fingerprint64, WpqEventRecord};

use crate::device::NvmDimm;
use crate::LineAddr;

/// One pending persistent write.
///
/// The payload is stored inline: queue slots live in the `VecDeque`'s own
/// allocation, so accepting a write is a 72-byte copy with no per-entry
/// heap traffic on the controller's hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PendingWrite {
    /// Destination line.
    pub addr: LineAddr,
    /// Payload.
    pub data: [u8; 64],
}

/// Error returned when an atomic group cannot fit even an empty WPQ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupTooLarge {
    /// Size of the rejected group.
    pub group: usize,
    /// WPQ capacity.
    pub capacity: usize,
}

impl std::fmt::Display for GroupTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "atomic group of {} writes exceeds WPQ capacity {} and can never commit",
            self.group, self.capacity
        )
    }
}

impl std::error::Error for GroupTooLarge {}

/// What happened to an accept request: either the group entered the ADR
/// domain at a given event-clock value (it is now durable), or the crash
/// fuse had already fired and the write was never issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// The group was accepted whole; `event` is the clock value of the
    /// accept (crash point `event` is the first point that observes it).
    Accepted {
        /// Event-clock value of this accept.
        event: u64,
    },
    /// The queue is dead (crash fuse fired): nothing was accepted.
    Dead,
}

impl AcceptOutcome {
    /// `true` when the group entered the ADR domain.
    pub fn is_accepted(&self) -> bool {
        matches!(self, AcceptOutcome::Accepted { .. })
    }
}

/// A bounded write-pending queue inside the ADR domain.
#[derive(Clone, Debug)]
pub struct WritePendingQueue {
    entries: VecDeque<PendingWrite>,
    capacity: usize,
    drains: u64,
    accepted: u64,
    stalls: u64,
    events: u64,
    fuse: Option<u64>,
    dead: bool,
    journal: Option<Vec<WpqEventRecord>>,
}

impl WritePendingQueue {
    /// Creates a WPQ holding `capacity` entries (8–64 on real parts;
    /// §3.2.1 conservatively assumes 8).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WPQ needs at least one entry");
        Self {
            entries: VecDeque::new(),
            capacity,
            drains: 0,
            accepted: 0,
            stalls: 0,
            events: 0,
            fuse: None,
            dead: false,
            journal: None,
        }
    }

    /// Queue capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently pending.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no writes are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total writes accepted over the WPQ's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// How many times a full queue forced an early drain (a stall in
    /// hardware).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Total entries drained from the queue to the media over its
    /// lifetime (stall-forced drains plus `flush`). Monotone in the
    /// crash point: the further a run gets, the more has drained.
    pub fn drains(&self) -> u64 {
        self.drains
    }

    /// The event clock: one tick per group accept (`push` counts as a
    /// group of one) and per stall-forced drain. "Cut power the instant
    /// event k completes" for `k` in `0..=events()` is a complete
    /// enumeration of the durable states a crash can expose — ADR flush
    /// steps do not tick the clock because flushing only realises
    /// durability already promised at accept time.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Arms the crash fuse: the queue goes dead the instant event
    /// `event` completes (`0` = dead before anything happens). A dead
    /// queue drops all further accepts — writes a powered-off CPU never
    /// issued — while [`WritePendingQueue::flush`] still drains
    /// everything accepted before death, exactly as ADR would.
    pub fn arm_crash_at_event(&mut self, event: u64) {
        self.fuse = Some(event);
        if self.events >= event {
            self.dead = true;
        }
    }

    /// `true` once the armed crash fuse has fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Starts journaling accepts and drains as
    /// [`WpqEventRecord`]s (replayable via `rt::crashck`).
    pub fn enable_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Takes the journal recorded so far (empty if journaling was never
    /// enabled); journaling continues afterwards.
    pub fn take_journal(&mut self) -> Vec<WpqEventRecord> {
        match &mut self.journal {
            Some(j) => std::mem::take(j),
            None => Vec::new(),
        }
    }

    /// Advances the event clock by one completed event and fires the
    /// fuse if this was the armed event.
    fn tick(&mut self) -> u64 {
        self.events += 1;
        if self.fuse.is_some_and(|f| self.events >= f) {
            self.dead = true;
        }
        self.events
    }

    /// Pushes one write, draining the oldest entry to `device` first if
    /// the queue is full. Returns where the accept landed on the event
    /// clock — or [`AcceptOutcome::Dead`] if the crash fuse has fired
    /// (the write is dropped: a dead machine issues nothing).
    pub fn push(&mut self, write: PendingWrite, device: &mut NvmDimm) -> AcceptOutcome {
        if self.dead {
            return AcceptOutcome::Dead;
        }
        if self.entries.len() == self.capacity {
            self.stalls += 1;
            self.drain_one(device);
            if self.dead {
                return AcceptOutcome::Dead;
            }
        }
        let event = self.tick();
        if let Some(j) = &mut self.journal {
            j.push(WpqEventRecord::Accept {
                event,
                writes: vec![(write.addr.index(), fingerprint64(&write.data[..]))],
            });
        }
        self.entries.push_back(write);
        self.accepted += 1;
        AcceptOutcome::Accepted { event }
    }

    /// Pushes a group of writes that must be accepted **atomically**: if
    /// the group does not fit, older entries are drained first ("as soon
    /// as few entries are flushed from WPQ to NVM" — §3.2.1). The group is
    /// never split across a crash boundary: acceptance is a single event
    /// on the crash clock, and if the fuse fires mid-stall the whole
    /// group is dropped (all or none even at the instant of death).
    ///
    /// # Errors
    ///
    /// Returns [`GroupTooLarge`] when the group exceeds the whole WPQ; the
    /// caller (the clone writer, the transaction committer) must cap its
    /// group size below this.
    ///
    /// The group vector is **drained** on acceptance (and on a dead
    /// queue), leaving its capacity behind so a hot caller can reuse one
    /// buffer across commits instead of allocating per group.
    pub fn push_atomic(
        &mut self,
        writes: &mut Vec<PendingWrite>,
        device: &mut NvmDimm,
    ) -> Result<AcceptOutcome, GroupTooLarge> {
        if writes.len() > self.capacity {
            return Err(GroupTooLarge {
                group: writes.len(),
                capacity: self.capacity,
            });
        }
        if self.dead {
            writes.clear();
            return Ok(AcceptOutcome::Dead);
        }
        while self.capacity - self.entries.len() < writes.len() {
            self.stalls += 1;
            self.drain_one(device);
            if self.dead {
                writes.clear();
                return Ok(AcceptOutcome::Dead);
            }
        }
        let event = self.tick();
        if let Some(j) = &mut self.journal {
            j.push(WpqEventRecord::Accept {
                event,
                writes: writes
                    .iter()
                    .map(|w| (w.addr.index(), fingerprint64(&w.data[..])))
                    .collect(),
            });
        }
        for w in writes.drain(..) {
            self.entries.push_back(w);
            self.accepted += 1;
        }
        Ok(AcceptOutcome::Accepted { event })
    }

    /// A stall-forced drain: one entry to media, one tick on the event
    /// clock (the media state changed — a crash can now observe it).
    fn drain_one(&mut self, device: &mut NvmDimm) {
        if let Some(w) = self.entries.pop_front() {
            device.write_line(w.addr, &w.data);
            self.drains += 1;
            let event = self.tick();
            if let Some(j) = &mut self.journal {
                j.push(WpqEventRecord::StallDrain {
                    event,
                    addr: w.addr.index(),
                    fp: fingerprint64(&w.data[..]),
                });
            }
        }
    }

    /// Drains every pending write to the device. This is what ADR does at
    /// power-fail time, and what makes a modeled crash lose nothing that
    /// reached the WPQ. Flush ignores the crash fuse (ADR works *because*
    /// the CPU is dead) and does not tick the event clock.
    pub fn flush(&mut self, device: &mut NvmDimm) {
        while let Some(w) = self.entries.pop_front() {
            device.write_line(w.addr, &w.data);
            self.drains += 1;
            if let Some(j) = &mut self.journal {
                j.push(WpqEventRecord::FlushDrain {
                    addr: w.addr.index(),
                    fp: fingerprint64(&w.data[..]),
                });
            }
        }
    }

    /// Iterates over pending writes (oldest first) without draining.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &PendingWrite> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::DimmGeometry;

    fn device() -> NvmDimm {
        NvmDimm::chipkill(DimmGeometry::tiny())
    }

    fn write(addr: u64, fill: u8) -> PendingWrite {
        PendingWrite {
            addr: LineAddr::new(addr),
            data: [fill; 64],
        }
    }

    #[test]
    fn push_and_flush_persist() {
        let mut d = device();
        let mut q = WritePendingQueue::new(8);
        q.push(write(1, 0xaa), &mut d);
        q.push(write(2, 0xbb), &mut d);
        assert_eq!(d.stats().writes, 0, "still in ADR domain, not on media");
        q.flush(&mut d);
        assert_eq!(d.stats().writes, 2);
        assert_eq!(d.read_line(LineAddr::new(1)).0, [0xaa; 64]);
        assert_eq!(d.read_line(LineAddr::new(2)).0, [0xbb; 64]);
    }

    #[test]
    fn full_queue_drains_oldest() {
        let mut d = device();
        let mut q = WritePendingQueue::new(2);
        q.push(write(1, 1), &mut d);
        q.push(write(2, 2), &mut d);
        q.push(write(3, 3), &mut d); // evicts write(1)
        assert_eq!(q.len(), 2);
        assert_eq!(q.stalls(), 1);
        assert_eq!(d.read_line(LineAddr::new(1)).0, [1; 64]);
    }

    #[test]
    fn atomic_group_fits_after_draining() {
        let mut d = device();
        let mut q = WritePendingQueue::new(4);
        q.push(write(1, 1), &mut d);
        q.push(write(2, 2), &mut d);
        q.push(write(3, 3), &mut d);
        // Group of 3 into a queue with 1 free slot: drains 2 residues first.
        q.push_atomic(
            &mut vec![write(10, 10), write(11, 11), write(12, 12)],
            &mut d,
        )
        .unwrap();
        assert_eq!(q.len(), 4);
        assert_eq!(d.stats().writes, 2);
    }

    #[test]
    fn oversized_group_rejected() {
        let mut d = device();
        let mut q = WritePendingQueue::new(4);
        let mut group: Vec<_> = (0..5).map(|i| write(i, i as u8)).collect();
        assert_eq!(
            q.push_atomic(&mut group, &mut d),
            Err(GroupTooLarge {
                group: 5,
                capacity: 4
            })
        );
        assert!(q.is_empty(), "rejected group must not partially enqueue");
    }

    #[test]
    fn accepted_counts() {
        let mut d = device();
        let mut q = WritePendingQueue::new(8);
        q.push(write(0, 0), &mut d);
        q.push_atomic(&mut vec![write(1, 1), write(2, 2)], &mut d)
            .unwrap();
        assert_eq!(q.accepted(), 3);
    }

    #[test]
    fn transaction_larger_than_capacity_never_commits() {
        // The commit primitive must reject — not truncate, not stall
        // forever — a transaction that cannot fit even an empty queue,
        // and the rejection must not consume stalls or events.
        let mut d = device();
        let mut q = WritePendingQueue::new(4);
        q.push(write(0, 0), &mut d);
        let mut group: Vec<_> = (1..=5).map(|i| write(i, i as u8)).collect();
        assert_eq!(
            q.push_atomic(&mut group, &mut d),
            Err(GroupTooLarge {
                group: 5,
                capacity: 4
            })
        );
        assert_eq!(q.len(), 1, "resident entries untouched by the rejection");
        assert_eq!(q.stalls(), 0, "no drains were forced for a doomed group");
        assert_eq!(q.events(), 1, "only the original push ticked the clock");
    }

    #[test]
    fn stall_accounting_at_exactly_full_queue() {
        let mut d = device();
        let mut q = WritePendingQueue::new(3);
        for i in 0..3 {
            q.push(write(i, i as u8), &mut d);
        }
        assert_eq!((q.len(), q.stalls()), (3, 0), "filling to the brim is free");
        // A single push at len == capacity forces exactly one stall drain.
        q.push(write(10, 10), &mut d);
        assert_eq!(q.stalls(), 1);
        assert_eq!(q.len(), 3);
        // An atomic group the size of the whole queue onto a full queue
        // forces exactly `capacity` stall drains — no more, no less.
        q.push_atomic(
            &mut vec![write(20, 20), write(21, 21), write(22, 22)],
            &mut d,
        )
        .unwrap();
        assert_eq!(q.stalls(), 1 + 3);
        assert_eq!(q.len(), 3);
        // Events: 5 accepts (the group is one event) + 4 stall drains.
        assert_eq!(q.events(), 9);
        assert_eq!(q.drains(), 4);
    }

    #[test]
    fn flush_mid_transaction_drains_groups_contiguously() {
        // `flush` while an atomic group sits in the queue must drain the
        // group wholly and in FIFO order — the journal shows every
        // accepted write reaching media with nothing interleaved.
        let mut d = device();
        let mut q = WritePendingQueue::new(8);
        q.enable_journal();
        q.push(write(1, 1), &mut d);
        q.push_atomic(&mut vec![write(2, 2), write(3, 3), write(4, 4)], &mut d)
            .unwrap();
        q.flush(&mut d);
        assert!(q.is_empty());
        let journal = q.take_journal();
        let flushed: Vec<u64> = journal
            .iter()
            .filter_map(|r| match r {
                soteria_rt::crashck::WpqEventRecord::FlushDrain { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        assert_eq!(flushed, vec![1, 2, 3, 4], "FIFO, group contiguous");
        // The journal replays cleanly against the pure queue model.
        soteria_rt::crashck::replay_journal(&journal, q.capacity())
            .expect("journal honours the queue discipline");
    }

    #[test]
    fn crash_fuse_kills_later_accepts_but_not_earlier_durability() {
        let mut d = device();
        let mut q = WritePendingQueue::new(4);
        q.arm_crash_at_event(2);
        assert!(q.push(write(1, 1), &mut d).is_accepted());
        let at2 = q.push(write(2, 2), &mut d);
        assert_eq!(at2, AcceptOutcome::Accepted { event: 2 });
        assert!(
            q.is_dead(),
            "the armed event completes, then the fuse fires"
        );
        assert_eq!(q.push(write(3, 3), &mut d), AcceptOutcome::Dead);
        assert_eq!(
            q.push_atomic(&mut vec![write(4, 4)], &mut d),
            Ok(AcceptOutcome::Dead)
        );
        assert_eq!(q.accepted(), 2, "dead accepts are dropped, not queued");
        // ADR still drains what was accepted before death.
        q.flush(&mut d);
        assert_eq!(d.read_line(LineAddr::new(1)).0, [1; 64]);
        assert_eq!(d.read_line(LineAddr::new(2)).0, [2; 64]);
        assert_eq!(d.read_line(LineAddr::new(3)).0, [0; 64], "never issued");
    }

    #[test]
    fn fuse_firing_on_a_stall_drain_drops_the_whole_group() {
        // All-or-none even at the instant of death: if the fuse fires on
        // a stall drain that was making room for a group, none of the
        // group is accepted.
        let mut d = device();
        let mut q = WritePendingQueue::new(2);
        q.push(write(1, 1), &mut d);
        q.push(write(2, 2), &mut d);
        q.arm_crash_at_event(3); // event 3 = the stall drain below
        let outcome = q
            .push_atomic(&mut vec![write(10, 10), write(11, 11)], &mut d)
            .unwrap();
        assert_eq!(outcome, AcceptOutcome::Dead);
        assert_eq!(q.accepted(), 2);
        q.flush(&mut d);
        assert_eq!(d.read_line(LineAddr::new(10)).0, [0; 64]);
        assert_eq!(d.read_line(LineAddr::new(2)).0, [2; 64]);
    }

    #[test]
    fn fuse_at_zero_is_dead_on_arrival() {
        let mut d = device();
        let mut q = WritePendingQueue::new(4);
        q.arm_crash_at_event(0);
        assert!(q.is_dead());
        assert_eq!(q.push(write(1, 1), &mut d), AcceptOutcome::Dead);
        q.flush(&mut d);
        assert_eq!(d.read_line(LineAddr::new(1)).0, [0; 64]);
    }

    #[test]
    fn adr_flush_preserves_every_accepted_write_on_power_loss() {
        // ADR contract: once `push`/`push_atomic` returns, the write is
        // durable. Drive a random mix of single writes and atomic groups
        // over a small address window (forcing mid-run stall drains and
        // many same-address overwrites), then cut power (`flush`). The
        // media must hold exactly the last accepted value of every line:
        // FIFO drain order means later writes win.
        use soteria_rt::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0xadf1);
        let mut d = device();
        let mut q = WritePendingQueue::new(8);
        let mut expected = std::collections::HashMap::new();
        let mut fill = 0u8;
        for _ in 0..200 {
            fill = fill.wrapping_add(1);
            if rng.random::<bool>() {
                let addr = rng.random_range(0..32u64);
                q.push(write(addr, fill), &mut d);
                expected.insert(addr, fill);
            } else {
                let group_len = rng.random_range(2..=5usize);
                let mut group: Vec<PendingWrite> = (0..group_len)
                    .map(|_| write(rng.random_range(0..32u64), fill))
                    .collect();
                for w in &group {
                    expected.insert(w.addr.index(), fill);
                }
                q.push_atomic(&mut group, &mut d).unwrap();
            }
        }
        // Power loss: ADR drains the whole queue to media.
        q.flush(&mut d);
        assert!(q.is_empty(), "flush must leave nothing pending");
        for (&addr, &fill) in &expected {
            assert_eq!(
                d.read_line(LineAddr::new(addr)).0,
                [fill; 64],
                "line {addr} lost its last accepted write across power loss"
            );
        }
    }
}

//! Scoreboard model of the out-of-order core (Table I: 4-wide, 224-entry
//! ROB, 6-stage pipeline).
//!
//! Instructions dispatch in program order at up to `width` per cycle and
//! retire in order at up to `width` per cycle. A load's completion cycle
//! comes from the memory system; independent loads overlap freely until the
//! ROB fills behind a long-latency miss — the mechanism that makes DRAM
//! latency dominate graph-processing IPC (the paper's Finding 1/2 regime).

use simtel::{StallBuckets, StallTag};

/// Bits of a packed ROB entry spent on the stall tag.
const TAG_BITS: u32 = 2;
const TAG_MASK: u64 = (1 << TAG_BITS) - 1;

/// Pack a completion cycle and stall tag into one word. Completion cycles
/// stay far below 2^62, so the shift never drops bits.
#[inline]
fn pack(completion: u64, tag: StallTag) -> u64 {
    debug_assert!(completion < 1 << 62);
    (completion << TAG_BITS) | tag as u64
}

#[inline]
fn unpack_tag(entry: u64) -> StallTag {
    match entry & TAG_MASK {
        0 => StallTag::Core,
        1 => StallTag::Mem,
        2 => StallTag::Dram,
        _ => StallTag::MshrFull,
    }
}

/// The core timing model.
///
/// In-flight instructions live in a flat power-of-two ring of packed
/// `completion << 2 | tag` words (not a `VecDeque` of tuples): half the
/// bytes per entry and branch-free wraparound, which matters because every
/// simulated instruction passes through one push and one pop here.
#[derive(Debug)]
pub struct RobModel {
    capacity: usize,
    width: usize,
    /// Packed ring buffer; `ring_mask` is `buf.len() - 1`.
    buf: Box<[u64]>,
    ring_mask: usize,
    /// Ring index of the oldest in-flight instruction.
    head: usize,
    /// In-flight instruction count (`<= capacity`).
    len: usize,
    /// Cycle at which the next dispatch slot opens.
    cycle: u64,
    dispatched_this_cycle: usize,
    last_retire_cycle: u64,
    retired_in_cycle: usize,
    /// Total retired instructions.
    pub retired: u64,
    /// Cumulative dispatch-stall attribution (telemetry; maintained
    /// whether or not a sink is attached — it is a handful of adds).
    pub stalls: StallBuckets,
}

impl RobModel {
    pub fn new(width: usize, capacity: usize) -> Self {
        assert!(width > 0 && capacity > 0);
        let ring = capacity.next_power_of_two();
        RobModel {
            capacity,
            width,
            buf: vec![0; ring].into_boxed_slice(),
            ring_mask: ring - 1,
            head: 0,
            len: 0,
            cycle: 0,
            dispatched_this_cycle: 0,
            last_retire_cycle: 0,
            retired_in_cycle: 0,
            retired: 0,
            stalls: StallBuckets::default(),
        }
    }

    #[inline]
    fn push(&mut self, entry: u64) {
        debug_assert!(self.len < self.capacity);
        self.buf[(self.head + self.len) & self.ring_mask] = entry;
        self.len += 1;
    }

    /// Retire the oldest instruction, honoring in-order retirement and the
    /// retire-width limit; returns the cycle it left the ROB and what it
    /// was waiting on.
    #[inline]
    fn retire_head(&mut self) -> (u64, StallTag) {
        debug_assert!(self.len > 0, "retire_head is only called on a non-empty ROB");
        let entry = self.buf[self.head];
        self.head = (self.head + 1) & self.ring_mask;
        self.len -= 1;
        let (completion, tag) = (entry >> TAG_BITS, unpack_tag(entry));
        let earliest = completion.max(self.last_retire_cycle);
        if earliest > self.last_retire_cycle {
            self.last_retire_cycle = earliest;
            self.retired_in_cycle = 1;
        } else if self.retired_in_cycle < self.width {
            self.retired_in_cycle += 1;
        } else {
            self.last_retire_cycle += 1;
            self.retired_in_cycle = 1;
        }
        self.retired += 1;
        (self.last_retire_cycle, tag)
    }

    /// Claim a dispatch slot for the next instruction in program order and
    /// return its dispatch cycle. The caller must follow up with
    /// [`RobModel::complete_at`].
    pub fn dispatch_slot(&mut self) -> u64 {
        if self.dispatched_this_cycle >= self.width {
            self.cycle += 1;
            self.dispatched_this_cycle = 0;
        }
        // A full ROB stalls dispatch until the head retires; the wait is
        // charged to whatever the head was blocked on.
        while self.len >= self.capacity {
            let (freed_at, tag) = self.retire_head();
            if freed_at > self.cycle {
                self.stalls.charge(tag, freed_at - self.cycle);
                self.cycle = freed_at;
                self.dispatched_this_cycle = 0;
            }
        }
        self.dispatched_this_cycle += 1;
        self.cycle
    }

    /// Record that the instruction dispatched last completes at `completion`.
    pub fn complete_at(&mut self, completion: u64) {
        self.complete_tagged(completion, StallTag::Core);
    }

    /// [`RobModel::complete_at`] with an explicit stall tag naming what
    /// the instruction waits on (memory level, MSHR pressure).
    pub fn complete_tagged(&mut self, completion: u64, tag: StallTag) {
        debug_assert!(completion > self.cycle);
        self.push(pack(completion.max(self.cycle + 1), tag));
    }

    /// Dispatch one single-cycle (non-memory) instruction.
    pub fn bubble(&mut self) {
        let d = self.dispatch_slot();
        self.push(pack(d + 1, StallTag::Core));
    }

    /// Dispatch `n` single-cycle instructions.
    ///
    /// Batched: a bubble burst first fills the free ROB slots (no retire
    /// can trigger while `len < capacity`, so that phase skips the
    /// full-check entirely), then runs a tight retire-one/push-one loop in
    /// the full state. Both phases replicate [`RobModel::bubble`] exactly —
    /// same dispatch, retire, and stall-charge sequence — they only hoist
    /// the per-instruction branches out of the hot loop.
    #[expect(clippy::cast_possible_truncation, reason = "n % width is below width, itself a usize")]
    pub fn bubbles(&mut self, n: u64) {
        if self.len == 0 && n > 2 * self.capacity as u64 {
            // Fast path: with an empty ROB a pure bubble burst is limited
            // only by width. Model the burst analytically, leaving the last
            // `capacity` in flight conservatively drained.
            let cycles = n / self.width as u64;
            self.cycle += cycles;
            self.dispatched_this_cycle = (n % self.width as u64) as usize;
            self.retired += n;
            self.last_retire_cycle = self.last_retire_cycle.max(self.cycle);
            self.retired_in_cycle = 0;
            return;
        }
        let mut remaining = n;
        // Fill phase: pushes only grow `len`, so no retire is possible
        // until the ROB is full.
        let fill = remaining.min((self.capacity - self.len) as u64);
        for _ in 0..fill {
            if self.dispatched_this_cycle >= self.width {
                self.cycle += 1;
                self.dispatched_this_cycle = 0;
            }
            self.dispatched_this_cycle += 1;
            self.buf[(self.head + self.len) & self.ring_mask] =
                pack(self.cycle + 1, StallTag::Core);
            self.len += 1;
        }
        remaining -= fill;
        // Full phase: every bubble retires the head (freeing exactly one
        // slot) and immediately reoccupies it, so `len` stays pinned at
        // `capacity` for the rest of the burst.
        while remaining > 0 {
            if self.dispatched_this_cycle >= self.width {
                self.cycle += 1;
                self.dispatched_this_cycle = 0;
            }
            let (freed_at, tag) = self.retire_head();
            if freed_at > self.cycle {
                self.stalls.charge(tag, freed_at - self.cycle);
                self.cycle = freed_at;
                self.dispatched_this_cycle = 0;
            }
            self.dispatched_this_cycle += 1;
            // `retire_head` advanced `head`, so the freed slot is at
            // `(head + capacity - 1) & ring_mask` = `len` entries past the
            // new head (`len == capacity - 1` here).
            self.buf[(self.head + self.len) & self.ring_mask] =
                pack(self.cycle + 1, StallTag::Core);
            self.len += 1;
            remaining -= 1;
        }
    }

    /// Cycle the model has dispatched up to (monotonic).
    pub fn current_cycle(&self) -> u64 {
        self.cycle
    }

    /// Drain all in-flight instructions; returns the final retire cycle.
    pub fn drain(&mut self) -> u64 {
        while self.len > 0 {
            self.retire_head();
        }
        self.last_retire_cycle.max(self.cycle)
    }

    /// Serialize the full core-model state (ring contents included — an
    /// in-flight long-latency load must survive a checkpoint).
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"ROB_");
        w.put_usize(self.capacity);
        w.put_usize(self.width);
        w.put_u64s(&self.buf);
        w.put_usize(self.head);
        w.put_usize(self.len);
        w.put_u64(self.cycle);
        w.put_usize(self.dispatched_this_cycle);
        w.put_u64(self.last_retire_cycle);
        w.put_usize(self.retired_in_cycle);
        w.put_u64(self.retired);
        w.put_u64(self.stalls.rob_full);
        w.put_u64(self.stalls.mshr_full);
        w.put_u64(self.stalls.dram_wait);
        w.put_u64(self.stalls.busy);
    }

    /// Restore state saved by [`RobModel::save_state`]. Geometry (capacity,
    /// width, ring size) must match this model's construction parameters;
    /// ring indices are domain-checked so a corrupt snapshot can never
    /// install an out-of-bounds head or an over-full ROB.
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        use simstate::StateError;
        r.expect_tag(b"ROB_")?;
        let capacity = r.get_usize()?;
        if capacity != self.capacity {
            return Err(StateError::ShapeMismatch {
                what: "rob capacity",
                expected: self.capacity as u64,
                found: capacity as u64,
            });
        }
        let width = r.get_usize()?;
        if width != self.width {
            return Err(StateError::ShapeMismatch {
                what: "rob width",
                expected: self.width as u64,
                found: width as u64,
            });
        }
        let mut buf = vec![0u64; self.buf.len()];
        r.read_u64s_into("rob ring", &mut buf)?;
        let head = r.get_usize()?;
        if head > self.ring_mask {
            return Err(StateError::BadValue { what: "rob head", found: head as u64 });
        }
        let len = r.get_usize()?;
        if len > self.capacity {
            return Err(StateError::BadValue { what: "rob len", found: len as u64 });
        }
        let cycle = r.get_u64()?;
        let dispatched_this_cycle = r.get_usize()?;
        if dispatched_this_cycle > self.width {
            return Err(StateError::BadValue {
                what: "rob dispatched_this_cycle",
                found: dispatched_this_cycle as u64,
            });
        }
        let last_retire_cycle = r.get_u64()?;
        let retired_in_cycle = r.get_usize()?;
        if retired_in_cycle > self.width {
            return Err(StateError::BadValue {
                what: "rob retired_in_cycle",
                found: retired_in_cycle as u64,
            });
        }
        let retired = r.get_u64()?;
        let stalls = StallBuckets {
            rob_full: r.get_u64()?,
            mshr_full: r.get_u64()?,
            dram_wait: r.get_u64()?,
            busy: r.get_u64()?,
        };
        self.buf.copy_from_slice(&buf);
        self.head = head;
        self.len = len;
        self.cycle = cycle;
        self.dispatched_this_cycle = dispatched_this_cycle;
        self.last_retire_cycle = last_retire_cycle;
        self.retired_in_cycle = retired_in_cycle;
        self.retired = retired;
        self.stalls = stalls;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_limits_dispatch() {
        let mut rob = RobModel::new(4, 32);
        let cycles: Vec<u64> = (0..8).map(|_| rob.dispatch_slot()).collect();
        for _ in 0..8 {
            rob.complete_at(rob.current_cycle() + 1);
        }
        assert_eq!(&cycles[0..4], &[0, 0, 0, 0]);
        assert_eq!(&cycles[4..8], &[1, 1, 1, 1]);
    }

    #[test]
    fn bubbles_retire_at_width_ipc() {
        let mut rob = RobModel::new(4, 224);
        rob.bubbles(4000);
        let end = rob.drain();
        let ipc = 4000.0 / end as f64;
        assert!((3.5..=4.01).contains(&ipc), "ipc = {ipc}");
    }

    #[test]
    fn long_latency_load_blocks_retirement() {
        let mut rob = RobModel::new(4, 8);
        // One load that completes at cycle 1000.
        let d = rob.dispatch_slot();
        assert_eq!(d, 0);
        rob.complete_at(1000);
        // Fill the ROB behind it; dispatch stalls once the ROB is full, and
        // resumes only when the load retires at 1000.
        let mut last_dispatch = 0;
        for _ in 0..16 {
            last_dispatch = rob.dispatch_slot();
            rob.complete_at(last_dispatch + 1);
        }
        assert!(last_dispatch >= 1000, "dispatch stalled until {last_dispatch}");
        rob.drain();
        assert_eq!(rob.retired, 17);
    }

    #[test]
    fn independent_loads_overlap() {
        // Two DRAM-latency loads back-to-back: total time ~ 1 latency, not 2.
        let mut rob = RobModel::new(4, 224);
        let d1 = rob.dispatch_slot();
        rob.complete_at(d1 + 200);
        let d2 = rob.dispatch_slot();
        rob.complete_at(d2 + 200);
        let end = rob.drain();
        assert!(end < 250, "loads should overlap, end = {end}");
    }

    #[test]
    fn serialized_by_rob_capacity() {
        // With a 2-entry ROB, many 100-cycle loads can only overlap in pairs.
        let mut rob = RobModel::new(4, 2);
        for _ in 0..10 {
            let d = rob.dispatch_slot();
            rob.complete_at(d + 100);
        }
        let end = rob.drain();
        assert!(end >= 450, "expected heavy serialization, end = {end}");
    }

    #[test]
    fn dispatch_stalls_are_attributed_to_the_blocking_head() {
        let mut rob = RobModel::new(4, 2);
        let d = rob.dispatch_slot();
        rob.complete_tagged(d + 100, StallTag::Dram);
        let d2 = rob.dispatch_slot();
        rob.complete_tagged(d2 + 1, StallTag::Core);
        // The 2-entry ROB is full; the next dispatch waits on the DRAM head.
        let d3 = rob.dispatch_slot();
        rob.complete_at(d3 + 1);
        assert!(d3 >= 100, "dispatch resumed at {d3}");
        assert_eq!(rob.stalls.dram_wait, 100);
        assert_eq!(rob.stalls.mshr_full, 0);
        assert_eq!(rob.stalls.rob_full, 0);
    }

    #[test]
    fn mshr_tagged_head_charges_mshr_bucket() {
        let mut rob = RobModel::new(1, 1);
        let d = rob.dispatch_slot();
        rob.complete_tagged(d + 50, StallTag::MshrFull);
        let d2 = rob.dispatch_slot();
        rob.complete_at(d2 + 1);
        assert!(rob.stalls.mshr_full >= 49, "stalls: {:?}", rob.stalls);
        assert_eq!(rob.stalls.dram_wait, 0);
    }

    #[test]
    fn retire_counts_all() {
        let mut rob = RobModel::new(2, 4);
        rob.bubbles(100);
        let d = rob.dispatch_slot();
        rob.complete_at(d + 10);
        rob.drain();
        assert_eq!(rob.retired, 101);
    }

    #[test]
    fn batched_bubbles_match_single_bubbles_exactly() {
        // Drive both models through fill + full-state phases: a long-latency
        // load, a burst larger than the ROB (forcing batched retires behind
        // the load), another load, another burst. Every observable — cycle,
        // retired count, stall attribution, drain time — must be identical.
        let run = |batched: bool| {
            let mut rob = RobModel::new(4, 32);
            let d = rob.dispatch_slot();
            rob.complete_tagged(d + 500, StallTag::Dram);
            if batched {
                rob.bubbles(100);
            } else {
                for _ in 0..100 {
                    rob.bubble();
                }
            }
            let d = rob.dispatch_slot();
            rob.complete_tagged(d + 200, StallTag::Mem);
            if batched {
                rob.bubbles(60);
            } else {
                for _ in 0..60 {
                    rob.bubble();
                }
            }
            let end = rob.drain();
            (end, rob.current_cycle(), rob.retired, rob.stalls)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn snapshot_mid_flight_restores_bit_identically() {
        // Save with in-flight loads pending, restore into a fresh model,
        // and run both through the same tail: every observable matches.
        let mut a = RobModel::new(4, 32);
        let d = a.dispatch_slot();
        a.complete_tagged(d + 500, StallTag::Dram);
        a.bubbles(40);

        let mut w = simstate::StateSink::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut b = RobModel::new(4, 32);
        let mut r = simstate::StateSource::new(&bytes);
        b.load_state(&mut r).unwrap();
        r.expect_end().unwrap();

        let tail = |rob: &mut RobModel| {
            let d = rob.dispatch_slot();
            rob.complete_tagged(d + 100, StallTag::MshrFull);
            rob.bubbles(300);
            let end = rob.drain();
            (end, rob.current_cycle(), rob.retired, rob.stalls)
        };
        assert_eq!(tail(&mut a), tail(&mut b));
    }

    #[test]
    fn snapshot_rejects_geometry_and_domain_corruption() {
        let mut a = RobModel::new(4, 32);
        a.bubbles(10);
        let mut w = simstate::StateSink::new();
        a.save_state(&mut w);
        let bytes = w.into_bytes();

        // Different construction geometry.
        let mut wrong = RobModel::new(4, 64);
        assert!(wrong.load_state(&mut simstate::StateSource::new(&bytes)).is_err());

        // Domain corruption: a head index beyond the ring must be refused
        // (capacity and width are the first two u64s after the 4-byte tag,
        // the ring length prefix + 32 entries follow, then head).
        let mut evil = bytes.clone();
        let head_off = 4 + 8 + 8 + 8 + 32 * 8;
        evil[head_off..head_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut b = RobModel::new(4, 32);
        assert!(b.load_state(&mut simstate::StateSource::new(&evil)).is_err());
    }

    #[test]
    fn fast_path_matches_slow_path_throughput() {
        let mut a = RobModel::new(4, 224);
        a.bubbles(10_000); // fast path
        let ea = a.drain();
        let mut b = RobModel::new(4, 224);
        for _ in 0..10_000 {
            b.bubble(); // slow path
        }
        let eb = b.drain();
        let diff = ea.abs_diff(eb);
        assert!(diff <= 224 / 4 + 2, "fast/slow divergence: {ea} vs {eb}");
    }
}

//! Miss Status Holding Register (MSHR) file, timestamp-based.
//!
//! The simulator is scoreboard-driven rather than event-driven: an MSHR
//! entry records the cycle its miss completes. Acquiring a slot when the
//! file is full delays the new miss until the earliest outstanding one
//! retires, which is how limited MSHRs throttle memory-level parallelism.

/// Outcome of asking the MSHR file for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A miss to the same block is already outstanding; the new request
    /// merges and completes at the recorded cycle.
    Merged { done: u64 },
    /// A slot was granted; the miss may start at `start` (>= now).
    Granted { start: u64 },
}

/// A fixed-capacity MSHR file.
///
/// Entries live in two parallel arrays (block addresses and completion
/// cycles) rather than a `Vec` of structs: the purge sweep reads only
/// `done` and the merge probe reads only `blocks`, so each scan touches
/// half the bytes. Entry order is observable — merges match the first
/// occupant and the full-file victim is the first minimum-`done` entry —
/// so every operation here preserves the same ordering the struct-of-Vec
/// version had.
#[derive(Debug)]
pub struct MshrFile {
    blocks: Vec<u64>,
    done: Vec<u64>,
    capacity: usize,
    /// Lower bound on every resident completion cycle (`u64::MAX` when
    /// empty). While `now < min_done` nothing can have expired, so the
    /// purge sweep — otherwise run on every acquire — is one compare.
    min_done: u64,
    /// Total same-block merges observed.
    pub merges: u64,
    /// Total cycles requests were delayed waiting for a free slot.
    pub stall_cycles: u64,
    /// Highest simultaneous occupancy ever committed (telemetry).
    pub high_water: u64,
}

impl MshrFile {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            blocks: Vec::with_capacity(capacity),
            done: Vec::with_capacity(capacity),
            capacity,
            min_done: u64::MAX,
            merges: 0,
            stall_cycles: 0,
            high_water: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Outstanding (not yet completed at `now`) entries.
    pub fn outstanding(&self, now: u64) -> usize {
        self.done.iter().filter(|&&d| d > now).count()
    }

    /// Non-blocking acquire for prefetches: returns false (drop the
    /// prefetch) when the file is full or the block is already in flight.
    /// On success the caller must [`MshrFile::commit`] the completion so
    /// the slot stays occupied — the occupancy is what throttles
    /// prefetching under demand pressure.
    pub fn try_acquire(&mut self, block: u64, now: u64) -> bool {
        self.purge(now);
        if self.done.len() >= self.capacity {
            return false;
        }
        if self.blocks.contains(&block) {
            return false;
        }
        true
    }

    /// Drop completed entries, keeping the survivors in their original
    /// order (order is observable through merge/victim selection).
    fn purge(&mut self, now: u64) {
        if now < self.min_done {
            return; // nothing resident has expired yet
        }
        let mut w = 0;
        let mut min = u64::MAX;
        for r in 0..self.done.len() {
            let d = self.done[r];
            if d > now {
                self.blocks[w] = self.blocks[r];
                self.done[w] = d;
                min = min.min(d);
                w += 1;
            }
        }
        self.blocks.truncate(w);
        self.done.truncate(w);
        self.min_done = min;
    }

    /// Request a slot for a miss to `block` issued at `now`.
    pub fn acquire(&mut self, block: u64, now: u64) -> MshrOutcome {
        self.purge(now);
        if let Some(i) = self.blocks.iter().position(|&b| b == block) {
            self.merges += 1;
            return MshrOutcome::Merged { done: self.done[i] };
        }
        if self.done.len() < self.capacity {
            return MshrOutcome::Granted { start: now };
        }
        // Full: wait for the earliest completion, then reuse that slot.
        // First minimum, so ties pick the oldest entry.
        let mut idx = 0;
        let mut earliest = u64::MAX;
        for (i, &d) in self.done.iter().enumerate() {
            if d < earliest {
                earliest = d;
                idx = i;
            }
        }
        let start = self.done[idx];
        self.blocks.swap_remove(idx);
        self.done.swap_remove(idx);
        self.stall_cycles += start - now;
        MshrOutcome::Granted { start }
    }

    /// Serialize occupancy (in entry order — order is observable through
    /// merge/victim selection) plus counters. Capacity is written for
    /// validation only.
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.tag(b"MSHR");
        w.put_usize(self.capacity);
        w.put_u64s(&self.blocks);
        w.put_u64s(&self.done);
        w.put_u64(self.min_done);
        w.put_u64(self.merges);
        w.put_u64(self.stall_cycles);
        w.put_u64(self.high_water);
    }

    /// Restore state saved by [`Self::save_state`] into a file of the same
    /// capacity.
    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        r.expect_tag(b"MSHR")?;
        let capacity = r.get_usize()?;
        if capacity != self.capacity {
            return Err(simstate::StateError::ShapeMismatch {
                what: "mshr capacity",
                expected: self.capacity as u64,
                found: capacity as u64,
            });
        }
        let blocks = r.read_u64s_bounded("mshr blocks", self.capacity)?;
        let done = r.read_u64s_bounded("mshr done", self.capacity)?;
        if blocks.len() != done.len() {
            return Err(simstate::StateError::ShapeMismatch {
                what: "mshr done entries",
                expected: blocks.len() as u64,
                found: done.len() as u64,
            });
        }
        self.blocks = blocks;
        self.done = done;
        self.min_done = r.get_u64()?;
        self.merges = r.get_u64()?;
        self.stall_cycles = r.get_u64()?;
        self.high_water = r.get_u64()?;
        Ok(())
    }

    /// Record the completion cycle for a granted miss.
    pub fn commit(&mut self, block: u64, done: u64) {
        debug_assert!(self.done.len() < self.capacity);
        self.blocks.push(block);
        self.done.push(done);
        self.min_done = self.min_done.min(done);
        self.high_water = self.high_water.max(self.done.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_up_to_capacity() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.acquire(1, 0), MshrOutcome::Granted { start: 0 });
        m.commit(1, 100);
        assert_eq!(m.acquire(2, 0), MshrOutcome::Granted { start: 0 });
        m.commit(2, 150);
        assert_eq!(m.outstanding(0), 2);
    }

    #[test]
    fn same_block_merges() {
        let mut m = MshrFile::new(2);
        m.acquire(7, 0);
        m.commit(7, 99);
        assert_eq!(m.acquire(7, 10), MshrOutcome::Merged { done: 99 });
        assert_eq!(m.merges, 1);
    }

    #[test]
    fn full_file_delays_to_earliest_completion() {
        let mut m = MshrFile::new(2);
        m.acquire(1, 0);
        m.commit(1, 100);
        m.acquire(2, 0);
        m.commit(2, 50);
        // Full at cycle 10; earliest completion is 50.
        assert_eq!(m.acquire(3, 10), MshrOutcome::Granted { start: 50 });
        assert_eq!(m.stall_cycles, 40);
    }

    #[test]
    fn completed_entries_free_slots() {
        let mut m = MshrFile::new(1);
        m.acquire(1, 0);
        m.commit(1, 20);
        // At cycle 30 the entry has completed; a new miss starts immediately.
        assert_eq!(m.acquire(2, 30), MshrOutcome::Granted { start: 30 });
        assert_eq!(m.stall_cycles, 0);
    }

    #[test]
    fn completed_entry_does_not_merge() {
        let mut m = MshrFile::new(2);
        m.acquire(5, 0);
        m.commit(5, 20);
        // Same block after completion is a fresh miss, not a merge.
        assert_eq!(m.acquire(5, 25), MshrOutcome::Granted { start: 25 });
        assert_eq!(m.merges, 0);
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut m = MshrFile::new(4);
        m.acquire(1, 0);
        m.commit(1, 100);
        m.acquire(2, 0);
        m.commit(2, 100);
        assert_eq!(m.high_water, 2);
        // Entries complete; new misses never exceed the old peak.
        m.acquire(3, 200);
        m.commit(3, 250);
        assert_eq!(m.high_water, 2, "purge must not inflate the mark");
        m.acquire(4, 200);
        m.commit(4, 250);
        m.acquire(5, 200);
        m.commit(5, 250);
        assert_eq!(m.high_water, 3);
    }

    #[test]
    fn purge_preserves_survivor_order() {
        // Two survivors with tied `done` straddling an expired entry: after
        // purge, a full-file acquire must evict the *older* survivor (first
        // minimum), which is only true if compaction kept their order.
        let mut m = MshrFile::new(3);
        m.acquire(1, 0);
        m.commit(1, 100);
        m.acquire(2, 0);
        m.commit(2, 10); // expires first
        m.acquire(3, 0);
        m.commit(3, 100); // tied with block 1
                          // At cycle 20, block 2 is gone; the file refills to capacity.
        assert_eq!(m.acquire(4, 20), MshrOutcome::Granted { start: 20 });
        m.commit(4, 200);
        // Full at cycle 30. Earliest done is 100, shared by blocks 1 and 3;
        // block 1 was committed first and must be the victim, so a
        // follow-up access to block 3 still merges while block 1 does not.
        assert_eq!(m.acquire(5, 30), MshrOutcome::Granted { start: 100 });
        m.commit(5, 300);
        assert_eq!(m.acquire(3, 31), MshrOutcome::Merged { done: 100 });
        assert_eq!(m.acquire(1, 32), MshrOutcome::Granted { start: 100 });
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}

//! Stream-gated next-line prefetcher (the Table I "next line prefetcher"
//! at the L1D and SDC).
//!
//! A pure next-line prefetcher that fires on *every* access would double
//! DRAM traffic on a random stream while fetching nothing useful; real
//! implementations gate on a detected ascending stream. This one keeps a
//! small PC-indexed table of each instruction's last block and prefetches
//! B+1 only when the instruction is advancing sequentially (delta 0 or +1
//! from its previous access), so the NA/OA/frontier streams get covered
//! while connectivity-driven gathers do not trigger useless fetches.

const TABLE_SIZE: usize = 64;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    pc: u16,
    last_block: u64,
    valid: bool,
}

/// The L1D/SDC next-line prefetcher.
#[derive(Debug)]
pub struct NextLine {
    table: Vec<Entry>,
}

impl Default for NextLine {
    fn default() -> Self {
        NextLine { table: vec![Entry::default(); TABLE_SIZE] }
    }
}

impl NextLine {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.put_usize(self.table.len());
        for e in &self.table {
            w.put_u32(u32::from(e.pc));
            w.put_u64(e.last_block);
            w.put_bool(e.valid);
        }
    }

    pub fn load_state(
        &mut self,
        r: &mut simstate::StateSource,
    ) -> Result<(), simstate::StateError> {
        let n = r.get_usize()?;
        if n != self.table.len() {
            return Err(simstate::StateError::ShapeMismatch {
                what: "next-line table",
                expected: self.table.len() as u64,
                found: n as u64,
            });
        }
        for e in &mut self.table {
            let pc = r.get_u32()?;
            e.pc = u16::try_from(pc).map_err(|_| simstate::StateError::BadValue {
                what: "next-line pc",
                found: u64::from(pc),
            })?;
            e.last_block = r.get_u64()?;
            e.valid = r.get_bool()?;
        }
        Ok(())
    }

    /// Observe one demand access (`pc`, `block`) and push candidate
    /// prefetch block addresses into `out`.
    pub fn on_access(&mut self, pc: u16, block: u64, _hit: bool, out: &mut Vec<u64>) {
        let slot = &mut self.table[pc as usize % TABLE_SIZE];
        let streaming = slot.valid && slot.pc == pc && block.wrapping_sub(slot.last_block) <= 1;
        *slot = Entry { pc, last_block: block, valid: true };
        if streaming {
            out.push(block + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_stream_prefetches_successor() {
        let mut p = NextLine::new();
        let mut out = Vec::new();
        for b in 100..110u64 {
            p.on_access(7, b, true, &mut out);
        }
        // First access trains; the rest prefetch.
        assert_eq!(out, (101..110).map(|b| b + 1).collect::<Vec<_>>());
    }

    #[test]
    fn repeated_block_counts_as_streaming() {
        let mut p = NextLine::new();
        let mut out = Vec::new();
        p.on_access(7, 50, true, &mut out);
        p.on_access(7, 50, true, &mut out); // delta 0: still the stream head
        assert_eq!(out, vec![51]);
    }

    #[test]
    fn random_stream_stays_silent() {
        let mut p = NextLine::new();
        let mut out = Vec::new();
        let mut x = 12345u64;
        for _ in 0..100 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            p.on_access(9, x >> 20, false, &mut out);
        }
        assert!(out.len() <= 2, "random stream prefetched {} times", out.len());
    }

    #[test]
    fn streams_tracked_per_pc() {
        let mut p = NextLine::new();
        let mut out = Vec::new();
        // PC 1 streams; PC 2 jumps around. Interleaved.
        for i in 0..20u64 {
            p.on_access(1, 1000 + i, true, &mut out);
            p.on_access(2, (i * 7919) % 100_000, false, &mut out);
        }
        let from_stream = out.iter().filter(|&&b| (1001..=1020).contains(&b)).count();
        assert!(from_stream >= 19, "stream coverage broken: {out:?}");
        assert!(out.len() <= from_stream + 2, "jumpy PC leaked prefetches");
    }

    #[test]
    fn descending_stream_not_prefetched() {
        let mut p = NextLine::new();
        let mut out = Vec::new();
        for b in (100..120u64).rev() {
            p.on_access(3, b, true, &mut out);
        }
        assert!(out.is_empty());
    }
}

//! Classic PC-stride prefetcher (reference-prediction-table style), an
//! extension beyond Table I used by the ablation benches: unlike the
//! next-line unit it covers constant non-unit strides (column sweeps,
//! strided numeric code), but like every stride prefetcher it still cannot
//! cover the data-dependent gathers that motivate the paper (Section VI,
//! "Hardware Prefetching").

const TABLE_SIZE: usize = 256;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    pc: u16,
    last_block: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// PC-indexed stride prefetcher with 2-bit confidence and configurable
/// prefetch degree.
#[derive(Debug)]
pub struct StridePrefetcher {
    table: Vec<Entry>,
    degree: usize,
}

impl StridePrefetcher {
    pub fn new(degree: usize) -> Self {
        StridePrefetcher { table: vec![Entry::default(); TABLE_SIZE], degree }
    }
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        Self::new(2)
    }
}

impl StridePrefetcher {
    pub fn save_state(&self, w: &mut simstate::StateSink) {
        w.put_usize(self.table.len());
        for e in &self.table {
            w.put_u32(u32::from(e.pc));
            w.put_u64(e.last_block);
            w.put_i64(e.stride);
            w.put_u8(e.confidence);
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
                what: "stride table",
                expected: self.table.len() as u64,
                found: n as u64,
            });
        }
        for e in &mut self.table {
            let pc = r.get_u32()?;
            e.pc = u16::try_from(pc).map_err(|_| simstate::StateError::BadValue {
                what: "stride pc",
                found: u64::from(pc),
            })?;
            e.last_block = r.get_u64()?;
            e.stride = r.get_i64()?;
            e.confidence = r.get_u8()?;
            e.valid = r.get_bool()?;
        }
        Ok(())
    }

    /// Observe one demand access (`pc`, `block`) and push candidate
    /// prefetch block addresses into `out`.
    pub fn on_access(&mut self, pc: u16, block: u64, _hit: bool, out: &mut Vec<u64>) {
        let slot = &mut self.table[pc as usize % TABLE_SIZE];
        if !slot.valid || slot.pc != pc {
            *slot = Entry { pc, last_block: block, stride: 0, confidence: 0, valid: true };
            return;
        }
        let stride = block as i64 - slot.last_block as i64;
        if stride != 0 && stride == slot.stride {
            slot.confidence = (slot.confidence + 1).min(3);
        } else {
            slot.confidence = slot.confidence.saturating_sub(1);
            if slot.confidence == 0 {
                slot.stride = stride;
            }
        }
        slot.last_block = block;
        if slot.confidence >= 2 && slot.stride != 0 {
            let mut next = block as i64;
            for _ in 0..self.degree {
                next += slot.stride;
                if next < 0 {
                    break;
                }
                out.push(next as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut StridePrefetcher, pc: u16, blocks: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for &b in blocks {
            p.on_access(pc, b, false, &mut out);
        }
        out
    }

    #[test]
    fn learns_non_unit_stride() {
        let mut p = StridePrefetcher::new(2);
        let blocks: Vec<u64> = (0..10).map(|i| 100 + i * 7).collect();
        let out = drive(&mut p, 4, &blocks);
        assert!(out.contains(&(100 + 4 * 7 + 7)), "missing stride-7 prefetch: {out:?}");
        assert!(out.iter().all(|b| (b - 100) % 7 == 0));
    }

    #[test]
    fn learns_negative_stride() {
        let mut p = StridePrefetcher::new(1);
        let blocks: Vec<u64> = (0..10).map(|i| 1000 - i * 3).collect();
        let out = drive(&mut p, 4, &blocks);
        assert!(!out.is_empty());
        assert!(out.iter().all(|&b| b < 1000 && (1000 - b) % 3 == 0), "{out:?}");
    }

    #[test]
    fn random_stream_never_gains_confidence() {
        let mut p = StridePrefetcher::new(2);
        let mut x = 77u64;
        let blocks: Vec<u64> = (0..200)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                x >> 30
            })
            .collect();
        let out = drive(&mut p, 9, &blocks);
        assert!(out.len() < 8, "random stream prefetched {} times", out.len());
    }

    #[test]
    fn degree_controls_lookahead() {
        let mut p = StridePrefetcher::new(4);
        let blocks: Vec<u64> = (0..6).map(|i| i * 2).collect();
        let mut out = Vec::new();
        for &b in &blocks {
            out.clear();
            p.on_access(3, b, false, &mut out);
        }
        assert_eq!(out.len(), 4);
        assert_eq!(out, vec![12, 14, 16, 18]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = StridePrefetcher::new(1);
        drive(&mut p, 5, &[0, 4, 8, 12]); // stride 4, confident
        let mut out = Vec::new();
        p.on_access(5, 13, false, &mut out); // stride breaks
        p.on_access(5, 14, false, &mut out);
        assert!(out.len() <= 1, "should need retraining: {out:?}");
    }
}
